package tensor

import (
	"fmt"
	"math"
)

// GEMM computes C = alpha*(A×B) + beta*C over raw row-major slices: A is
// m×k, B is k×n, C is m×n. With alpha 1 and beta 0 or 1 — every product the
// program issues — it takes gemm's dispatch; any other scaling takes
// gemmNaive. With beta == 0, C is stored without being read, so
// uninitialized scratch output buffers are safe.
func GEMM(a, b, c []float32, m, k, n int, alpha, beta float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMM operand sizes %d/%d/%d too small for (%d×%d)·(%d×%d)",
			len(a), len(b), len(c), m, k, k, n))
	}
	if alpha == 1 && (beta == 0 || beta == 1) {
		gemm(a, k, 1, b, n, 1, c, m, k, n, beta == 1, Epilogue{}, nil)
		return
	}
	gemmNaive(a, k, 1, b, n, 1, c, m, k, n, alpha, beta)
}

// gemm is the one dispatch of every product: C = op(A)·op(B), plus C when
// accumulate, then ep, for row-major C (m×n) and operands addressed through
// strides as gemmBlocked's are. Under an FMA kernel a product of two rows or
// more takes the blocked micro-kernel path (gemm_blocked.go) and a one-row
// product that overwrites C the gemv, which sums in the same order; every
// other product takes gemmNaive. The gemv reads op(A)'s row and B's rows
// contiguous: a one-row op(A) is, under every stride the entries pass (a
// transposed one has column stride m = 1), and B is unless transposed. So a
// one-row transposed-A product takes the gemv too, though nothing in the
// program issues one. A non-nil ps supplies the blocked path's packing
// panels; nil borrows them from the pool.
func gemm(a []float32, ars, acs int, b []float32, brs, bcs int, c []float32, m, k, n int, accumulate bool, ep Epilogue, ps *PackScratch) {
	switch {
	case m == 0 || n == 0:
	case useBlocked(m, k):
		gemmBlocked(a, ars, acs, b, brs, bcs, c, m, k, n, accumulate, ep, ps, nil)
	case blockedEnabled && m == 1 && k >= 4 && !accumulate && bcs == 1:
		gemvRow(a, b, c, k, n)
		epilogueTile(c, n, 0, 0, 1, n, &ep)
	default:
		beta := float32(0)
		if accumulate {
			beta = 1
		}
		gemmNaive(a, ars, acs, b, brs, bcs, c, m, k, n, 1, beta)
		epilogueTile(c, n, 0, 0, m, n, &ep)
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

// MatMulTransAInto computes C = Aᵀ × B into an existing m×n tensor (A is
// k×m, B is k×n), routing the blocked path's packing panels through ps
// (shared pool when nil).
func MatMulTransAInto(c, a, b *Tensor, ps *PackScratch) {
	matMulTransA(c, a, b, false, ps, "MatMulTransAInto")
}

// MatMulTransAAcc computes C += Aᵀ × B into an existing m×n tensor — the
// gradient-accumulation shape of the backward passes — without allocating
// an intermediate product.
func MatMulTransAAcc(c, a, b *Tensor, ps *PackScratch) {
	matMulTransA(c, a, b, true, ps, "MatMulTransAAcc")
}

func matMulTransA(c, a, b *Tensor, accumulate bool, ps *PackScratch, what string) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s operands %v and %v", what, a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	checkOut(c, m, n, what)
	// op(A)[i,p] = a[p*m+i]: unit row stride, column stride m.
	gemm(a.Data, 1, m, b.Data, n, 1, c.Data, m, k, n, accumulate, Epilogue{}, ps)
}

// MatMulTransBInto computes C = A × Bᵀ into an existing m×n tensor (A is
// m×k, B is n×k), routing the blocked path's packing panels through ps
// (shared pool when nil).
func MatMulTransBInto(c, a, b *Tensor, ps *PackScratch) {
	matMulTransB(c, a, b, false, ps, "MatMulTransBInto")
}

// MatMulTransBAcc computes C += A × Bᵀ into an existing m×n tensor.
func MatMulTransBAcc(c, a, b *Tensor, ps *PackScratch) {
	matMulTransB(c, a, b, true, ps, "MatMulTransBAcc")
}

func matMulTransB(c, a, b *Tensor, accumulate bool, ps *PackScratch, what string) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: %s operands %v and %v", what, a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	checkOut(c, m, n, what)
	// op(B)[p,j] = b[j*k+p]: row stride 1, column stride k.
	gemm(a.Data, k, 1, b.Data, 1, k, c.Data, m, k, n, accumulate, Epilogue{}, ps)
}

func checkOut(c *Tensor, m, n int, what string) {
	if len(c.Shape) != 2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s output shape %v, want [%d %d]", what, c.Shape, m, n))
	}
}

// gemmNaive computes C = alpha·op(A)·op(B) + beta·C for row-major C (m×n),
// the operands addressed through strides as gemmBlocked's are. Each element
// takes its terms in one order, c += alpha·op(A)[i,p] · op(B)[p,j] for p
// ascending as the compiler writes `c += av * bv`, a zero coefficient
// skipped, and each row alone. It is the one summation order off the blocked
// path — every product without FMA, depths below 4, any scaling but alpha 1
// with beta 0 or 1 — and the blocked kernel's reference. A row's nonzero
// coefficients are listed a blockKC-deep chunk at a time; with bcs == 1,
// every B the program passes but a transposed one, each adds its row of
// op(B) into C's as a contiguous slice, and a transposed B is read down its
// contiguous columns, each element summing the chunk's terms in a register:
// the same additions in the same order, without a strided pass per term.
func gemmNaive(a []float32, ars, acs int, b []float32, brs, bcs int, c []float32, m, k, n int, alpha, beta float32) {
	var offs [blockKC]int
	var coefs [blockKC]float32
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		if beta == 0 {
			clear(crow)
		} else if beta != 1 {
			for j := range crow {
				crow[j] *= beta
			}
		}
		for p0 := 0; p0 < k; p0 += blockKC {
			cnt := 0
			for p := p0; p < min(p0+blockKC, k); p++ {
				if av := alpha * a[i*ars+p*acs]; av != 0 {
					offs[cnt], coefs[cnt] = p*brs, av
					cnt++
				}
			}
			off, coef := offs[:cnt], coefs[:cnt]
			if bcs != 1 {
				for j, s := range crow {
					col := b[j*bcs:]
					for q, av := range coef {
						s += av * col[off[q]]
					}
					crow[j] = s
				}
				continue
			}
			for q, av := range coef {
				for j, bv := range b[off[q]:][:n] {
					crow[j] += av * bv
				}
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
