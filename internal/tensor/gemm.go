package tensor

import (
	"fmt"
	"math"
)

// GEMM computes C = alpha*(A×B) + beta*C over raw row-major slices: A is
// m×k, B is k×n, C is m×n. It is the hot-path entry point used by the
// layers in internal/nn. Under an FMA kernel a product of two rows or more
// takes the cache-blocked micro-kernel path (gemm_blocked.go) and a single
// row with alpha 1 and beta 0 the gemv, which sums in the same order; every
// other product takes the axpy reference kernel. With beta == 0, C is
// stored without being read, so uninitialized scratch output buffers are
// safe.
func GEMM(a, b, c []float32, m, k, n int, alpha, beta float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMM operand sizes %d/%d/%d too small for (%d×%d)·(%d×%d)",
			len(a), len(b), len(c), m, k, k, n))
	}
	switch {
	case m == 0 || n == 0:
	case useBlocked(m, k):
		gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, alpha, beta, Epilogue{}, nil, nil)
	case useGemv(m, k) && alpha == 1 && beta == 0:
		gemvRow(a, b, c, k, n)
	default:
		gemmNaive(a, b, c, m, k, n, alpha, beta)
	}
}

// useBlocked is the single dispatch gate for the blocked micro-kernel path:
// an FMA kernel must exist, the product must have two rows or more (one row
// is gemvRow's, in the same order) and the depth must cover the kernel's
// unrolled loads. It does not look at the width or the size: every product
// it admits sums each element in one order, whatever the batch.
func useBlocked(m, k int) bool {
	return blockedEnabled && m > 1 && k >= 4
}

// useGemv is useBlocked's one-row counterpart: the products gemvRow takes.
func useGemv(m, k int) bool {
	return blockedEnabled && m == 1 && k >= 4
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
	if useBlocked(m, k) {
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
	if useBlocked(m, k) {
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
// C's row i sequentially, multiplying and adding as the compiler writes
// `crow[j] += av * bv`, and skips a zero coefficient. Each row is summed
// alone, so a row's bits do not depend on the rows beside it. It is every
// product's path on a kernel without FMA and the oracle the blocked kernel
// is tested against.
func gemmNaive(a, b, c []float32, m, k, n int, alpha, beta float32) {
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

// gemvRow computes the single-row product c = a·B for a length-k vector a
// and k×n matrix B in the blocked kernel's order (gemmBlocked with
// tileTail or writeTile): for each blockKC-deep block, an accumulator that
// starts at +0 takes acc = fma(a_p, b_p, acc) for p ascending; block 0's
// accumulator is stored to c, and each later block's is added to c,
// unfused. So a row's bits are its row's in any blocked product. The
// caller applies the epilogue after, as the blocked path does on its last
// depth block.
//
// Zero coefficients are skipped — single-image inputs and post-relu
// activations are sparse, and skipping a zero skips a whole row of B — and
// each block runs as one gemvBlock call over the rows of the nonzero
// coefficients, its accumulators in registers. Skipping a zero term changes no sum of finite
// operands but the sign of a zero: the kernel's +0·b added to a −0 gives
// +0. A skipped sum can only be a −0 where the kernel's is a +0, so a
// result holding a −0 is summed again with every term. B must be finite
// (0·Inf is NaN in the kernel, and skipped here).
func gemvRow(a, b, c []float32, k, n int) {
	c = c[:n]
	gemvSum(a, b, c, k, true)
	for _, v := range c {
		if math.Float32bits(v) == 1<<31 {
			gemvSum(a, b, c, k, false)
			return
		}
	}
}

// gemvSum is one pass of gemvRow, skipping zero coefficients when skip is
// set.
func gemvSum(a, b, c []float32, k int, skip bool) {
	var off [blockKC]int
	var coef [blockKC]float32
	for pc := 0; pc < k; pc += blockKC {
		cnt := 0
		for p, av := range a[pc:min(pc+blockKC, k)] {
			if skip && av == 0 {
				continue
			}
			off[cnt], coef[cnt] = (pc+p)*len(c), av
			cnt++
		}
		gemvBlock(activeKernel.vec, c, b, &off, &coef, cnt, pc > 0)
	}
}

// gemvBlockGo is gemvBlock without a vector body, sixteen columns at a
// time. Each step is the generic micro-kernel's `acc += a * b`, fused
// wherever the compiler fuses that one (never below GOAMD64=v3, always on arm64), so
// the row has the bits of the blocked product under the same kernel.
func gemvBlockGo(c, b []float32, off []int, coef []float32, accumulate bool) {
	var acc [16]float32
	for j0 := 0; j0 < len(c); j0 += len(acc) {
		crow := c[j0:min(j0+len(acc), len(c))]
		t := acc[:len(crow)]
		clear(t)
		for i, o := range off {
			av, row := coef[i], b[o+j0:][:len(t)]
			for j := range t {
				t[j] += av * row[j]
			}
		}
		if !accumulate {
			copy(crow, t)
			continue
		}
		for j, v := range t {
			crow[j] += v
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
