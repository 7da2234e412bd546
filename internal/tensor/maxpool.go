package tensor

import (
	"fmt"
	"math"
)

// MaxPool2 max-pools planes consecutive h×w planes of src with 2×2 windows
// at stride 2 into dst, planes consecutive (h/2)×(w/2) planes; an odd last
// row or column is left out, as a window never runs off a plane. Each window
// is scanned top-left, top-right, bottom-left, bottom-right, the first
// element taken as it is and each later one only when it is greater — `if v
// > best { best = v }` — so a NaN or a zero equal to the running maximum
// never replaces it, and NaN payloads and the sign of −0 come out as the
// scan meets them. With a vector ISA the body runs whole output rows a
// vector of outputs at a time (maxPool2Vec): even and odd lanes of each row
// pair split apart, then one max per later element with the element as the
// first source, which returns the second — the running maximum — for a NaN
// in either or for two zeros, the scan's bits exactly.
func MaxPool2(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	if planes < 0 || oh < 1 || ow < 1 || len(src) < planes*h*w || len(dst) < planes*oh*ow {
		panic(fmt.Sprintf("tensor: MaxPool2 of %d %d×%d planes: src %d, dst %d", planes, h, w, len(src), len(dst)))
	}
	if isa := activeKernel.vec; isa != vecNone {
		if h%2 == 0 {
			// Every output row's top input row is 2w past the last one's,
			// across planes too: one run over all of them.
			maxPool2Vec(isa, dst, src, w, ow, planes*oh)
			return
		}
		for pl := 0; pl < planes; pl++ {
			maxPool2Vec(isa, dst[pl*oh*ow:], src[pl*h*w:], w, ow, oh)
		}
		return
	}
	oi := 0
	for pl := 0; pl < planes; pl++ {
		plane := src[pl*h*w : (pl+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			top, bot := plane[2*oy*w:][:w], plane[(2*oy+1)*w:][:w]
			for ox := 0; ox < ow; ox++ {
				x0 := 2 * ox
				best := math.Float32bits(top[x0])
				best = selectGreater(best, top[x0+1])
				best = selectGreater(best, bot[x0])
				best = selectGreater(best, bot[x0+1])
				dst[oi] = math.Float32frombits(best)
				oi++
			}
		}
	}
}

// selectGreater is `if v > best { best = v }` with best held as its bit
// pattern: the float compare decides, an integer conditional move assigns —
// which of two neighbouring activations is larger is not something a branch
// predictor learns.
func selectGreater(best uint32, v float32) uint32 {
	if v > math.Float32frombits(best) {
		best = math.Float32bits(v)
	}
	return best
}
