package tensor

import (
	"fmt"
	"math"
)

// GEMM epilogues: bias broadcast and activation fused into the product's
// write-back instead of run as separate memory-bound sweeps. On the blocked
// path bias and relu are part of each tile's write-back (gemm_blocked.go)
// and a sigmoid sweeps the rows of each finished row block while they are
// cache-hot; the gemv and axpy fallbacks apply the epilogue as a single row
// sweep after the product. Every stage is elementwise and every form of it —
// Go loop or vector routine — produces the Go loop's bits, so every dispatch
// path computes bit-identical results.

// EpilogueAct selects the activation a GEMM epilogue applies after the bias.
type EpilogueAct uint8

const (
	// EpActNone applies no activation.
	EpActNone EpilogueAct = iota
	// EpActReLU clamps negatives to zero (v < 0, so −0 and NaN stay),
	// matching nn.ReLU.
	EpActReLU
	// EpActSigmoid applies the logistic function through SigmoidSlice, as
	// nn.Sigmoid does, so fused and unfused paths agree bitwise.
	EpActSigmoid
)

// Epilogue describes the fused post-GEMM stage: an optional per-row bias, an
// optional per-column bias, and an activation. The dense layer layout
// (batch × features) uses ColBias; the convolution layout
// (channels × batch·spatial) uses RowBias.
type Epilogue struct {
	Act EpilogueAct
	// RowBias, when non-nil, adds RowBias[i] to every element of row i.
	RowBias []float32
	// ColBias, when non-nil, adds ColBias[j] to every element of column j.
	ColBias []float32
}

// isIdentity reports whether the epilogue would leave C unchanged.
func (ep *Epilogue) isIdentity() bool {
	return ep.Act == EpActNone && ep.RowBias == nil && ep.ColBias == nil
}

// checkBias panics when a bias is shorter than the m×n product it serves.
func (ep *Epilogue) checkBias(m, n int) {
	if ep.RowBias != nil && len(ep.RowBias) < m {
		panic(fmt.Sprintf("tensor: GEMM epilogue row bias len %d, want ≥ %d", len(ep.RowBias), m))
	}
	if ep.ColBias != nil && len(ep.ColBias) < n {
		panic(fmt.Sprintf("tensor: GEMM epilogue col bias len %d, want ≥ %d", len(ep.ColBias), n))
	}
}

// Sigmoid32 is the logistic function computed through float64 — the single
// definition of a sigmoid's bits. Every sigmoid path (nn layer, fused
// epilogue, plan step, direct convolution) applies it through SigmoidSlice,
// so their outputs agree bitwise.
func Sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// sigmoidBlock is how many elements SigmoidSlice hands Sigmoid32 when the
// vector body stops at an untrusted lane: the widest routine's block.
const sigmoidBlock = 16

// SigmoidSlice sets dst[i] = Sigmoid32(src[i]) for every i; dst may be src
// and src must be at least as long. With a vector ISA the body runs in
// float64 lanes (sigmoidVec) and stores only results it can show to be
// Sigmoid32's; it stops at a block with a lane it does not trust — within
// the margin of a rounding tie (SIGMOID_TIE_MARGIN in vec_amd64.s, with the
// error budget), |x| > 80, NaN — which, like the tail shorter than a block,
// Sigmoid32 computes before the body is re-entered.
func SigmoidSlice(dst, src []float32) {
	src = src[:len(dst)]
	for i := 0; i < len(dst); {
		i += sigmoidVec(activeKernel.vec, dst[i:], src[i:])
		end := min(i+sigmoidBlock, len(dst))
		for ; i < end; i++ {
			dst[i] = Sigmoid32(src[i])
		}
	}
}

// GEMMEpilogue computes C = act((A×B) + bias) over raw row-major slices: A
// is m×k, B is k×n, C is m×n (stored without being read, like GEMM with
// beta = 0). Dispatch mirrors GEMM — blocked micro-kernel, gemv, or axpy
// fallback — with the epilogue folded into the blocked path's write-back
// tail and applied as one sweep on the scalar paths. A non-nil ps supplies
// caller-owned packing panels for the blocked path (compiled plans keep one
// per plan, so their serial hot path never touches the shared pool); nil
// borrows from the pool.
func GEMMEpilogue(a, b, c []float32, m, k, n int, ep Epilogue, ps *PackScratch) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMMEpilogue operand sizes %d/%d/%d too small for (%d×%d)·(%d×%d)",
			len(a), len(b), len(c), m, k, k, n))
	}
	ep.checkBias(m, n)
	switch {
	case m == 0 || n == 0:
	case useBlocked(m, k):
		gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, 1, 0, ep, ps, nil)
	case useGemv(m, k):
		gemvRow(a, b, c, k, n)
		epilogueTile(c, n, 0, 0, 1, n, &ep)
	default:
		gemmNaive(a, b, c, m, k, n, 1, 0)
		epilogueTile(c, n, 0, 0, m, n, &ep)
	}
}

// epilogueTile applies ep to the mEff×nEff tile of C whose top-left element
// is (i0, j0): bias first (row then column, global indices), activation
// after, matching the unfused layer order (Dense/Conv2D then activation).
// The gemv and axpy paths call it with one tile spanning whole rows. On the
// blocked path it follows writeTile on the final depth block for the tiles
// tileTail does not take (ragged edges, general alpha/beta, no vector ISA)
// and is the reference tileTail is held to; the sigmoid never reaches it
// there (gemmBlocked holds it back for the row sweep).
func epilogueTile(c []float32, ldc, i0, j0, mEff, nEff int, ep *Epilogue) {
	for i := 0; i < mEff; i++ {
		row := c[(i0+i)*ldc+j0 : (i0+i)*ldc+j0+nEff]
		if ep.RowBias != nil {
			rb := ep.RowBias[i0+i]
			for j := range row {
				row[j] += rb
			}
		}
		if ep.ColBias != nil {
			cb := ep.ColBias[j0 : j0+nEff]
			for j := range row {
				row[j] += cb[j]
			}
		}
		switch ep.Act {
		case EpActReLU:
			// relu as a select on the bit pattern under the float compare:
			// the same v < 0 as `if v < 0 { v = 0 }` (−0 and NaN stay),
			// compiled to a conditional move where the float form is a
			// branch — and the sign of a pre-activation is close to a coin
			// toss, so that branch mispredicts every other element on real
			// inputs.
			for j, v := range row {
				b := math.Float32bits(v)
				if v < 0 {
					b = 0
				}
				row[j] = math.Float32frombits(b)
			}
		case EpActSigmoid:
			SigmoidSlice(row, row)
		}
	}
}
