package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// parallelThreshold is the minimum number of multiply-accumulate operations
// (m*n*k) before MatMul fans work out to multiple goroutines. Below it the
// goroutine handoff costs more than it saves.
const parallelThreshold = 64 * 64 * 64

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	c := New(m, n)
	GEMM(a.Data, b.Data, c.Data, m, k, n, 1, 0)
	return c
}

// MatMulInto computes C = alpha*(A×B) + beta*C into an existing tensor,
// avoiding an allocation. C must be m×n.
func MatMulInto(c, a, b *Tensor, alpha, beta float32) {
	m, k, n := checkMatMul(a, b)
	if len(c.Shape) != 2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto output shape %v, want [%d %d]", c.Shape, m, n))
	}
	GEMM(a.Data, b.Data, c.Data, m, k, n, alpha, beta)
}

// GEMM computes C = alpha*(A×B) + beta*C over raw row-major slices: A is
// m×k, B is k×n, C is m×n. It is the hot-path entry point used by the
// layers in internal/nn; large problems take the cache-blocked micro-kernel
// path (gemm_blocked.go), single-row products the unrolled gemv, and
// everything else the axpy reference kernel. With beta == 0, C is stored
// without being read, so uninitialized scratch output buffers are safe.
func GEMM(a, b, c []float32, m, k, n int, alpha, beta float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMM operand sizes %d/%d/%d too small for (%d×%d)·(%d×%d)",
			len(a), len(b), len(c), m, k, k, n))
	}
	switch {
	case m == 0 || n == 0:
	case m == 1:
		gemvRow(a, b, c, k, n, alpha, beta)
	case useBlocked(m, k, n):
		gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, alpha, beta, Epilogue{}, nil, nil)
	default:
		gemmNaive(a, b, c, m, k, n, alpha, beta)
	}
}

// useBlocked is the single dispatch gate for the blocked micro-kernel path:
// an FMA kernel must exist, the problem must be large enough to amortize
// packing, at least one full tile column of the active kernel's width must
// exist, the depth must cover the kernel's unrolled loads, and multi-row
// (m==1 is gemv's job).
func useBlocked(m, k, n int) bool {
	return blockedEnabled && m > 1 && m*k*n >= blockedMinFlops && n >= activeKernel.nr && k >= 4
}

// MatMulTransA computes C = Aᵀ × B without materializing Aᵀ.
// A is k×m, B is k×n, C is m×n.
func MatMulTransA(a, b *Tensor) *Tensor {
	k, m, n := checkTransA(a, b)
	c := New(m, n)
	matMulTransA(c, a, b, m, k, n, 0, nil)
	return c
}

// MatMulTransAInto computes C = Aᵀ × B into an existing m×n tensor, routing
// the blocked path's packing panels through ps (shared pool when nil).
func MatMulTransAInto(c, a, b *Tensor, ps *PackScratch) {
	k, m, n := checkTransA(a, b)
	checkTransOut(c, m, n, "MatMulTransAInto")
	matMulTransA(c, a, b, m, k, n, 0, ps)
}

// MatMulTransAAcc computes C += Aᵀ × B into an existing m×n tensor — the
// gradient-accumulation shape of the backward passes — without allocating
// an intermediate product.
func MatMulTransAAcc(c, a, b *Tensor, ps *PackScratch) {
	k, m, n := checkTransA(a, b)
	checkTransOut(c, m, n, "MatMulTransAAcc")
	matMulTransA(c, a, b, m, k, n, 1, ps)
}

func checkTransA(a, b *Tensor) (k, m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransA on non-matrices")
	}
	k, m = a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dims %d vs %d", k, b.Shape[0]))
	}
	return k, m, b.Shape[1]
}

func checkTransOut(c *Tensor, m, n int, what string) {
	if len(c.Shape) != 2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", what, c.Shape, m, n))
	}
}

// matMulTransA computes C = Aᵀ×B + beta·C (beta must be 0 or 1).
func matMulTransA(c, a, b *Tensor, m, k, n int, beta float32, ps *PackScratch) {
	if useBlocked(m, k, n) {
		// op(A)[i,p] = a[p*m+i]: unit row stride, column stride m.
		gemmBlocked(a.Data, 1, m, b.Data, n, 1, c.Data, m, k, n, 1, beta, Epilogue{}, ps, nil)
		return
	}
	if beta == 0 {
		for i := range c.Data[:m*n] {
			c.Data[i] = 0
		}
	}
	if !shouldParallel(m, n*k) {
		matMulTransARange(a.Data, b.Data, c.Data, m, k, n, 0, m)
		return
	}
	parallelRows(m, m*n*k, func(i0, i1 int) {
		matMulTransARange(a.Data, b.Data, c.Data, m, k, n, i0, i1)
	})
}

// matMulTransARange accumulates rows [i0, i1) of C += Aᵀ×B: cᵢⱼ = Σ_p
// a_{p,i} b_{p,j}, for each p a rank-1 update of those rows.
func matMulTransARange(a, b, c []float32, m, k, n, i0, i1 int) {
	for p := 0; p < k; p++ {
		arow := a[p*m : (p+1)*m]
		brow := b[p*n : (p+1)*n]
		for i := i0; i < i1; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// MatMulTransB computes C = A × Bᵀ without materializing Bᵀ.
// A is m×k, B is n×k, C is m×n.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := checkTransB(a, b)
	c := New(m, n)
	matMulTransB(c, a, b, m, k, n, 0, nil)
	return c
}

// MatMulTransBInto computes C = A × Bᵀ into an existing m×n tensor, routing
// the blocked path's packing panels through ps (shared pool when nil).
func MatMulTransBInto(c, a, b *Tensor, ps *PackScratch) {
	m, k, n := checkTransB(a, b)
	checkTransOut(c, m, n, "MatMulTransBInto")
	matMulTransB(c, a, b, m, k, n, 0, ps)
}

// MatMulTransBAcc computes C += A × Bᵀ into an existing m×n tensor.
func MatMulTransBAcc(c, a, b *Tensor, ps *PackScratch) {
	m, k, n := checkTransB(a, b)
	checkTransOut(c, m, n, "MatMulTransBAcc")
	matMulTransB(c, a, b, m, k, n, 1, ps)
}

func checkTransB(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMulTransB on non-matrices")
	}
	m, k = a.Shape[0], a.Shape[1]
	if b.Shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dims %d vs %d", k, b.Shape[1]))
	}
	return m, k, b.Shape[0]
}

// matMulTransB computes C = A×Bᵀ + beta·C (beta must be 0 or 1).
func matMulTransB(c, a, b *Tensor, m, k, n int, beta float32, ps *PackScratch) {
	if useBlocked(m, k, n) {
		// op(B)[p,j] = b[j*k+p]: row stride 1, column stride k.
		gemmBlocked(a.Data, k, 1, b.Data, 1, k, c.Data, m, k, n, 1, beta, Epilogue{}, ps, nil)
		return
	}
	if !shouldParallel(m, n*k) {
		matMulTransBRange(a.Data, b.Data, c.Data, k, n, beta == 1, 0, m)
		return
	}
	parallelRows(m, m*n*k, func(i0, i1 int) {
		matMulTransBRange(a.Data, b.Data, c.Data, k, n, beta == 1, i0, i1)
	})
}

// matMulTransBRange computes rows [i0, i1) of C = A×Bᵀ, added to C when acc.
func matMulTransBRange(a, b, c []float32, k, n int, acc bool, i0, i1 int) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p, av := range arow {
				s += av * brow[p]
			}
			if acc {
				crow[j] += s
			} else {
				crow[j] = s
			}
		}
	}
}

func checkMatMul(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul on non-matrices %v × %v", a.Shape, b.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d vs %d", k, b.Shape[0]))
	}
	n = b.Shape[1]
	return m, k, n
}

// GEMMNaive runs the retained axpy reference kernel regardless of what the
// dispatcher would pick — the baseline that perf tooling and oracle tests
// measure the blocked kernel against.
func GEMMNaive(a, b, c []float32, m, k, n int, alpha, beta float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMMNaive operand sizes %d/%d/%d too small for (%d×%d)·(%d×%d)",
			len(a), len(b), len(c), m, k, k, n))
	}
	gemmNaive(a, b, c, m, k, n, alpha, beta)
}

// gemmNaive computes C = alpha*A*B + beta*C over raw row-major slices with
// the i-p-j axpy formulation: the innermost loop streams both B's row p and
// C's row i sequentially. It is the small-problem fallback and the oracle
// the blocked kernel is tested against.
//
// Where C is no wider than one vector of the active kernel's ISA (the
// classifier head's 10 classes on AVX-512) and alpha is 1, beta 0 or 1, the
// rows run in narrowGEMM instead: each row's C stays in one masked register
// for the whole depth loop, and for every p the row's update is the Go
// loop's — bv·av, then that product plus C, unfused and in those operand
// roles (the order the compiler gives `crow[j] += av * bv`) — merged into C
// under a mask of av ≠ 0. That mask is the Go loop's zero-skip without its
// branch: an av of ±0 leaves C as it was, a NaN av is applied. Each element
// therefore has the Go loop's bits, NaN payloads included. `av *= 1` is
// left out: it changes no av but a signalling NaN, which it quiets — and the
// product quiets it the same way.
func gemmNaive(a, b, c []float32, m, k, n int, alpha, beta float32) {
	if !shouldParallel(m, n*k) {
		gemmNaiveRange(a, b, c, k, n, alpha, beta, 0, m)
		return
	}
	parallelRows(m, m*n*k, func(i0, i1 int) {
		gemmNaiveRange(a, b, c, k, n, alpha, beta, i0, i1)
	})
}

func gemmNaiveRange(a, b, c []float32, k, n int, alpha, beta float32, i0, i1 int) {
	if alpha == 1 && (beta == 0 || beta == 1) &&
		narrowGEMM(activeKernel.vec, a[i0*k:i1*k], b, c[i0*n:i1*n], i1-i0, k, n, beta == 1) {
		return
	}
	for i := i0; i < i1; i++ {
		crow := c[i*n : (i+1)*n]
		if beta == 0 {
			for j := range crow {
				crow[j] = 0
			}
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			av *= alpha
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

// gemvRow computes the single-row product c = alpha*(a·B) + beta*c for a
// length-k vector a and k×n matrix B. Zero coefficients are skipped exactly
// like the axpy reference — single-image inputs and post-relu activations
// are sparse, and skipping a zero skips a whole row of B — while the
// surviving nonzero coefficients are compacted into groups of four and
// fused into one pass over c, so each c element costs one load/store per
// eight flops instead of per two. The m==1 shape (ClassifyDirect on one
// image) is too small to amortize micro-kernel packing, but not too small
// for instruction-level parallelism: where the active kernel comes with
// vector bodies (axpy4, axpy1) they run both passes over the leading vector
// multiple of c, in the association the Go loops below spell out —
// c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3), multiply and add unfused — and
// the Go loops finish the n mod width tail, so a row has the same bits
// under every kernel (of an amd64 build whose Go loops the compiler leaves
// unfused — any below GOAMD64=v3; no other architecture has the bodies).
func gemvRow(a, b, c []float32, k, n int, alpha, beta float32) {
	c = c[:n]
	vec := activeKernel.vec
	if beta == 0 {
		for j := range c {
			c[j] = 0
		}
	} else if beta != 1 {
		for j := range c {
			c[j] *= beta
		}
	}
	var coef [4]float32
	var brow [4][]float32
	cnt := 0
	for p := 0; p < k; p++ {
		av := alpha * a[p]
		if av == 0 {
			continue
		}
		coef[cnt] = av
		brow[cnt] = b[p*n : p*n+n]
		cnt++
		if cnt < 4 {
			continue
		}
		cnt = 0
		a0, a1, a2, a3 := coef[0], coef[1], coef[2], coef[3]
		b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
		for j := axpy4(vec, c, b0, b1, b2, b3, a0, a1, a2, a3); j < n; j++ {
			c[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for g := 0; g < cnt; g++ {
		av := coef[g]
		row := brow[g]
		for j := axpy1(vec, c, row, av); j < n; j++ {
			c[j] += av * row[j]
		}
	}
}

// Fan-out floor for row-sliced work: a goroutine handoff + WaitGroup wake
// costs on the order of a few thousand flops' worth of time, so a worker
// whose slice is only a row or two of light work loses more to scheduling
// than it computes. Light rows therefore need minRowsPerWorker rows each
// before another worker pays off; rows heavy enough to dwarf the handoff
// (heavyRowFlops: a row that would cross the parallel threshold by itself)
// may split all the way down to one row per worker — that is the batch-level
// fan-out over a handful of expensive images. BenchmarkParallelRowsFloor
// holds the line between the two: two rows of half a threshold each run as
// fast on one goroutine as on two (161–208 µs against 197–213 µs on the
// 2-core reference host), without the four allocations of the split.
const (
	minRowsPerWorker = 4
	heavyRowFlops    = parallelThreshold
)

// gemmThreadsVal is the fan-out width: the most goroutines (caller's share
// included) one call into this package spreads its rows over. Default
// GOMAXPROCS.
var gemmThreadsVal atomic.Int64

func init() { gemmThreadsVal.Store(int64(runtime.GOMAXPROCS(0))) }

// SetGEMMThreads sets the process-wide fan-out width — how many goroutines
// parallelRows, the package's one fan-out, may split a large row range
// across (ParallelFor, the scalar GEMM/gemv fallbacks and the row sweeps go
// through it; nn's Conv2D.Backward reads the same value) — and returns the
// previous setting. Values below 1 clamp to 1, the width at which nothing in
// tensor or nn starts a goroutine on any kernel; values above GOMAXPROCS are
// honored rather than clamped. The blocked GEMM never fans out. A process
// whose parallelism lives above this package (engine workers) sets 1.
func SetGEMMThreads(n int) int {
	return int(gemmThreadsVal.Swap(int64(max(n, 1))))
}

// GEMMThreads reports the current fan-out width.
func GEMMThreads() int { return int(gemmThreadsVal.Load()) }

// maxRowWorkers returns how many goroutines row-sliced work over rows rows
// totalling flops flops deserves (1 = stay serial), at most GEMMThreads.
func maxRowWorkers(rows, flops int) int {
	workers := GEMMThreads()
	if flops < parallelThreshold || workers < 2 || rows < 2 {
		return 1
	}
	workers = min(workers, rows)
	if flops/rows < heavyRowFlops {
		workers = min(workers, max(rows/minRowsPerWorker, 1))
	}
	return workers
}

// parallelRows splits [0, rows) into contiguous chunks and runs fn on each,
// in parallel when the problem (measured in flops) is large enough.
func parallelRows(rows, flops int, fn func(i0, i1 int)) {
	if rows == 0 {
		return
	}
	workers := maxRowWorkers(rows, flops)
	if workers < 2 {
		fn(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		i0 := w * chunk
		if i0 >= rows {
			break
		}
		i1 := min(i0+chunk, rows)
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			fn(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// ParallelFor splits [0, n) into contiguous chunks and runs fn on each chunk,
// fanning out to at most GEMMThreads goroutines when n*costPerItem (an
// approximate flop count) exceeds the parallelization threshold. fn must be
// safe to call concurrently on disjoint ranges. It is the batch-level
// work-sharing primitive used by the layer and training code.
func ParallelFor(n, costPerItem int, fn func(i0, i1 int)) {
	parallelRows(n, n*costPerItem, fn)
}

// shouldParallel reports whether ParallelFor would actually fan [0, items)
// out to multiple goroutines. Allocation-sensitive callers use it to take a
// direct serial call — constructing the closure ParallelFor needs forces a
// heap allocation even when the work ends up running inline.
func shouldParallel(items, costPerItem int) bool {
	return maxRowWorkers(items, items*costPerItem) > 1
}

// MatVec computes y = A × x for a 2-D A (m×k) and 1-D x (k). Rows are
// processed with four independent accumulator chains (the loads of x and a
// row pipeline across them) and split over goroutines for large matrices.
func MatVec(a, x *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(x.Shape) != 1 {
		panic("tensor: MatVec wants matrix × vector")
	}
	m, k := a.Shape[0], a.Shape[1]
	if x.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatVec dims %d vs %d", k, x.Shape[0]))
	}
	y := New(m)
	MatVecInto(y.Data, a.Data, x.Data, m, k)
	return y
}

// MatVecInto computes y = A × x over raw slices without allocating.
func MatVecInto(y, a, x []float32, m, k int) {
	x = x[:k]
	if !shouldParallel(m, k) {
		matVecRange(y, a, x, k, 0, m)
		return
	}
	parallelRows(m, m*k, func(i0, i1 int) {
		matVecRange(y, a, x, k, i0, i1)
	})
}

func matVecRange(y, a, x []float32, k, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := a[i*k : (i+1)*k]
		var s0, s1, s2, s3 float32
		p := 0
		for ; p+4 <= k; p += 4 {
			s0 += row[p] * x[p]
			s1 += row[p+1] * x[p+1]
			s2 += row[p+2] * x[p+2]
			s3 += row[p+3] * x[p+3]
		}
		for ; p < k; p++ {
			s0 += row[p] * x[p]
		}
		y[i] = s0 + s1 + s2 + s3
	}
}

// AddRowVector adds vector v (length n) to every row of the m×n matrix t,
// fanning rows out to goroutines for large matrices.
func (t *Tensor) AddRowVector(v *Tensor) {
	if len(t.Shape) != 2 || len(v.Shape) != 1 || t.Shape[1] != v.Shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v + %v", t.Shape, v.Shape))
	}
	n := t.Shape[1]
	vd := v.Data[:n]
	if !shouldParallel(t.Shape[0], n) {
		addRowVectorRange(t.Data, vd, n, 0, t.Shape[0])
		return
	}
	parallelRows(t.Shape[0], t.Shape[0]*n, func(i0, i1 int) {
		addRowVectorRange(t.Data, vd, n, i0, i1)
	})
}

func addRowVectorRange(data, vd []float32, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		row := data[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			row[j] += vd[j]
			row[j+1] += vd[j+1]
			row[j+2] += vd[j+2]
			row[j+3] += vd[j+3]
		}
		for ; j < n; j++ {
			row[j] += vd[j]
		}
	}
}

// SumRows returns the column-wise sum of a 2-D tensor as a length-n vector.
// Work is split across column blocks (each worker owns a disjoint slice of
// the output) and the row loop is unrolled four ways so the accumulator
// loads amortize over four streams.
func (t *Tensor) SumRows() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SumRows on non-matrix")
	}
	m, n := t.Shape[0], t.Shape[1]
	out := New(n)
	if n == 0 {
		return out
	}
	if !shouldParallel(n, m) {
		sumRowsRange(out.Data, t.Data, m, n, 0, n)
		return out
	}
	parallelRows(n, n*m, func(j0, j1 int) {
		sumRowsRange(out.Data, t.Data, m, n, j0, j1)
	})
	return out
}

// SumRowsInto accumulates the column-wise sum of a 2-D tensor into acc
// (length n), i.e. acc += Σ_rows t — the bias-gradient shape of the dense
// backward pass, computed without allocating an intermediate vector.
func (t *Tensor) SumRowsInto(acc *Tensor) {
	if len(t.Shape) != 2 {
		panic("tensor: SumRowsInto on non-matrix")
	}
	m, n := t.Shape[0], t.Shape[1]
	if len(acc.Shape) != 1 || acc.Shape[0] != n {
		panic(fmt.Sprintf("tensor: SumRowsInto acc shape %v, want [%d]", acc.Shape, n))
	}
	if n == 0 {
		return
	}
	if !shouldParallel(n, m) {
		sumRowsRange(acc.Data, t.Data, m, n, 0, n)
		return
	}
	parallelRows(n, n*m, func(j0, j1 int) {
		sumRowsRange(acc.Data, t.Data, m, n, j0, j1)
	})
}

func sumRowsRange(out, data []float32, m, n, j0, j1 int) {
	acc := out[j0:j1]
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := data[i*n+j0 : i*n+j1]
		r1 := data[(i+1)*n+j0 : (i+1)*n+j1]
		r2 := data[(i+2)*n+j0 : (i+2)*n+j1]
		r3 := data[(i+3)*n+j0 : (i+3)*n+j1]
		for j := range acc {
			acc[j] += (r0[j] + r1[j]) + (r2[j] + r3[j])
		}
	}
	for ; i < m; i++ {
		row := data[i*n+j0 : i*n+j1]
		for j := range row {
			acc[j] += row[j]
		}
	}
}
