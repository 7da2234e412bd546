package tensor

import (
	"fmt"
	"math"
)

// GEMM epilogues: bias broadcast and activation fused into the product's
// write-back instead of run as separate memory-bound sweeps. On the blocked
// path the epilogue is applied in the micro-kernel write-back tail
// (gemm_blocked.go) while the C tile is still cache-hot; the gemv and axpy
// fallbacks apply it as a single row sweep after the product, so every
// dispatch path computes bit-identical results.

// EpilogueAct selects the activation a GEMM epilogue applies after the bias.
type EpilogueAct uint8

const (
	// EpActNone applies no activation.
	EpActNone EpilogueAct = iota
	// EpActReLU clamps negatives to zero, matching nn.ReLU.
	EpActReLU
	// EpActSigmoid applies the logistic function, matching nn.Sigmoid
	// (computed through float64 like the layer, so fused and unfused
	// paths agree bitwise).
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
// definition every sigmoid path (nn layer, scratch path, fused epilogue,
// plan step) shares so their outputs agree bitwise. nn.Sigmoid32 aliases
// it.
func Sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
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
	case m == 1:
		gemvRow(a, b, c, k, n, 1, 0)
		epilogueTile(c, n, 0, 0, 1, n, &ep)
	case useBlocked(m, k, n):
		gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, 1, 0, ep, ps, nil)
	default:
		gemmNaive(a, b, c, m, k, n, 1, 0)
		if ep.isIdentity() {
			return
		}
		if !shouldParallel(m, 4*n) {
			epilogueTile(c, n, 0, 0, m, n, &ep)
			return
		}
		epilogueParallel(c, m, n, ep)
	}
}

// epilogueParallel fans the epilogue sweep of an m×n matrix out over row
// ranges. It lives in its own frame so the closure capture only
// heap-allocates ep on this (already allocating) parallel path, keeping the
// serial callers allocation-free.
func epilogueParallel(c []float32, m, n int, ep Epilogue) {
	parallelRows(m, 4*m*n, func(i0, i1 int) {
		epilogueTile(c, n, i0, 0, i1-i0, n, &ep)
	})
}

// epilogueTile applies ep to the mEff×nEff tile of C whose top-left element
// is (i0, j0): bias first (row then column, global indices), activation
// after, matching the unfused layer order (Dense/Conv2D then activation).
// On the blocked path it is the micro-kernel write-back tail, run once per
// tile on the final depth block while the tile is still cache-resident; the
// scalar paths call it with one tile spanning whole rows.
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
			for j, v := range row {
				row[j] = Sigmoid32(v)
			}
		}
	}
}
