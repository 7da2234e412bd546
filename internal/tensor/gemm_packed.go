package tensor

import "fmt"

// PackedB is a GEMM B operand (k×n) held in the blocked driver's packed
// form: every (jc, pc) panel of the loop nest in gemm_blocked.go, each
// already split into the nr-column slivers the micro-kernel streams and
// zero-padded to the nr multiple — what packB would write, for the whole
// matrix, once. A product that is handed a PackedB skips packB and grows no
// B panel, so an operand that outlives one call (constant weights) is packed
// once, and an operand that is generated (an im2col expansion) can be
// generated in this form and never exist row-major.
//
// The form depends on the micro-kernel only through its sliver width, so a
// PackedB is tagged with the nr it was packed for, and whoever keeps one
// across calls keys it on PackedWidth. Panels are laid out in loop order: the
// panel of (jc, pc) starts at k·jc + pc·w, w the nr-rounded width of column
// block jc (every block but the last is blockNC wide, a multiple of every
// registered nr). A PackedB is read-only to the products that use it and
// may be shared by any number of them.
type PackedB struct {
	k, n int
	nr   int
	data []float32
}

// Pack stores the row-major k×n matrix b in packed form for the active
// kernel, reusing pb's storage when it is large enough.
func (pb *PackedB) Pack(b []float32, k, n int) {
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: PackedB.Pack operand len %d too small for %d×%d", len(b), k, n))
	}
	nr := activeKernel.nr
	need := k * roundUp(n, nr)
	if cap(pb.data) < need {
		pb.data = make([]float32, need)
	}
	pb.k, pb.n, pb.nr, pb.data = k, n, nr, pb.data[:need]
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			packB(b, n, 1, pc, jc, kc, nc, nr, pb.panel(jc, pc, kc, nc))
		}
	}
}

// PackedWidth returns the sliver width operands are packed for under the
// active micro-kernel. A PackedB made under another width must be re-made
// before use.
func PackedWidth() int { return activeKernel.nr }

// panel returns the packed kc×nc panel at (jc, pc).
func (pb *PackedB) panel(jc, pc, kc, nc int) []float32 {
	w := roundUp(nc, pb.nr)
	off := pb.k*jc + pc*w
	return pb.data[off : off+kc*w]
}

// at returns the offset of matrix element (pc, j), pc the first row of a
// depth block: the panel of (j's column block, pc) holds the block's kc rows
// of j's sliver from sliver·kc·nr, row by row nr floats apart.
func (pb *PackedB) at(pc, j int) int {
	jc := j / blockNC * blockNC
	w := roundUp(min(blockNC, pb.n-jc), pb.nr)
	kc := min(blockKC, pb.k-pc)
	return pb.k*jc + pc*w + (j-jc)/pb.nr*kc*pb.nr + j%pb.nr
}

// BlockedGEMM reports whether an m-row product of depth k dispatches to the
// blocked micro-kernel path — the products GEMMEpiloguePacked serves. The
// rest (single rows, depths below 4, hosts without an FMA kernel) read B
// row-major through GEMMEpilogue. The width does not enter.
func BlockedGEMM(m, k int) bool { return useBlocked(m, k) }

// GEMMEpiloguePacked is GEMMEpilogue for a product that dispatches to the
// blocked path (BlockedGEMM(m, pb's k) must hold) with B already
// packed: C = act((A×B) + bias), A m×k row-major, through the same driver,
// kernel and summation order, minus the packing of B. pb must have been
// packed under the current PackedWidth.
func GEMMEpiloguePacked(a []float32, pb *PackedB, c []float32, m int, ep Epilogue, ps *PackScratch) {
	k, n := pb.k, pb.n
	if !useBlocked(m, k) {
		panic(fmt.Sprintf("tensor: GEMMEpiloguePacked on a (%d×%d)·(%d×%d) product the blocked path does not serve", m, k, k, n))
	}
	if pb.nr != activeKernel.nr {
		panic(fmt.Sprintf("tensor: GEMMEpiloguePacked operand packed for nr=%d, active kernel %s has nr=%d", pb.nr, activeKernel.name, activeKernel.nr))
	}
	if len(a) < m*k || len(c) < m*n {
		panic(fmt.Sprintf("tensor: GEMMEpiloguePacked operand sizes %d/%d too small for (%d×%d)·(%d×%d)", len(a), len(c), m, k, k, n))
	}
	ep.checkBias(m, n)
	gemmBlocked(a, k, 1, nil, 0, 0, c, m, k, n, false, ep, ps, pb)
}
