package tensor

import "fmt"

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

// matMulTransA computes C = Aᵀ×B + beta·C (beta must be 0 or 1). Off the
// blocked path cᵢⱼ = Σ_p a_{p,i} b_{p,j}, for each p a rank-1 update of C.
func matMulTransA(c, a, b *Tensor, m, k, n int, beta float32, ps *PackScratch) {
	if useBlocked(m, k, n) {
		// op(A)[i,p] = a[p*m+i]: unit row stride, column stride m.
		gemmBlocked(a.Data, 1, m, b.Data, n, 1, c.Data, m, k, n, 1, beta, Epilogue{}, ps, nil)
		return
	}
	cd := c.Data[:m*n]
	if beta == 0 {
		for i := range cd {
			cd[i] = 0
		}
	}
	for p := 0; p < k; p++ {
		arow := a.Data[p*m : (p+1)*m]
		brow := b.Data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
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
	acc := beta == 1
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
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
	if alpha == 1 && (beta == 0 || beta == 1) &&
		narrowGEMM(activeKernel.vec, a[:m*k], b, c[:m*n], m, k, n, beta == 1) {
		return
	}
	for i := 0; i < m; i++ {
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

// SetGEMMThreads does nothing and returns 1: nothing in tensor or nn fans
// out, and nothing reads a width. It stays only because the benchmark
// (benchmark/workloads.go) calls it; ROADMAP item 5 deletes it with that
// caller.
func SetGEMMThreads(int) int { return 1 }

// SumRows returns the column-wise sum of a 2-D tensor as a length-n vector.
func (t *Tensor) SumRows() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: SumRows on non-matrix")
	}
	out := New(t.Shape[1])
	sumRows(out.Data, t.Data, t.Shape[0], t.Shape[1])
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
	sumRows(acc.Data, t.Data, m, n)
}

// sumRows adds the m rows of the m×n matrix data into out. The row loop is
// unrolled four ways so the accumulator loads amortize over four streams.
func sumRows(out, data []float32, m, n int) {
	acc := out[:n]
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := data[i*n : (i+1)*n]
		r1 := data[(i+1)*n : (i+2)*n]
		r2 := data[(i+2)*n : (i+3)*n]
		r3 := data[(i+3)*n : (i+4)*n]
		for j := range acc {
			acc[j] += (r0[j] + r1[j]) + (r2[j] + r3[j])
		}
	}
	for ; i < m; i++ {
		row := data[i*n : (i+1)*n]
		for j := range row {
			acc[j] += row[j]
		}
	}
}
