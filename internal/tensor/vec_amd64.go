//go:build amd64

package tensor

// Bindings for the vector loops of vec_amd64.s. Each entry point checks the
// slices it is handed against what the routine will touch, then calls the
// routine of the registry entry's instruction set directly — a static,
// noescape call, so the callers' stack operands (the tap offsets, gemvRow's
// coefficient group) stay on the stack.

//go:noescape
func tapConvAVX512(plane, frame, w *float32, off *int, taps, blocks int, bias, floor float32)

//go:noescape
func tapConvAVX2(plane, frame, w *float32, off *int, taps, blocks int, bias, floor float32)

//go:noescape
func axpy4AVX512(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy1AVX512(c, b *float32, n int, a float32)

//go:noescape
func axpy1AVX2(c, b *float32, n int, a float32)

// tapConv accumulates one output plane of a direct convolution: for every p
// in [0, len(plane)), a multiple of tapBlock, plane[p] = max(Σ_t
// w[t]·frame[p+off[t]] + bias, floor) — one fused multiply-add per tap, t
// ascending, from a zero accumulator, then the epilogue's bias add and its
// relu (floor 0; floor −Inf applies none, and a NaN or −0 sum passes either
// floor untouched). frame must reach len(plane) + max(off) elements.
func tapConv(isa vecISA, plane, frame, w []float32, off []int, bias, floor float32) {
	reach := 0
	for _, o := range off {
		if o < 0 {
			panic("tensor: negative direct-convolution tap offset")
		}
		reach = max(reach, o)
	}
	if len(off) == 0 || len(plane) == 0 || len(plane)%tapBlock != 0 || len(frame) < len(plane)+reach || len(w) < len(off) {
		panic("tensor: direct-convolution operands do not cover the plane")
	}
	switch isa {
	case vecAVX512:
		tapConvAVX512(&plane[0], &frame[0], &w[0], &off[0], len(off), len(plane)/tapBlock, bias, floor)
	case vecAVX2:
		tapConvAVX2(&plane[0], &frame[0], &w[0], &off[0], len(off), len(plane)/tapBlock, bias, floor)
	default:
		panic("tensor: active kernel has no direct-convolution routine")
	}
}

// width is the number of float32 lanes of the instruction set's gemv
// bodies; 0 for vecNone.
func (isa vecISA) width() int {
	switch isa {
	case vecAVX512:
		return 16
	case vecAVX2:
		return 8
	}
	return 0
}

// axpy4 runs gemvRow's fused four-row pass, c[j] += ((a0·b0[j] + a1·b1[j]) +
// a2·b2[j]) + a3·b3[j], over the leading vector multiple of c and returns
// how many elements that was; the caller's Go loop finishes the rest. The
// rows must be at least as long as c.
func axpy4(isa vecISA, c, b0, b1, b2, b3 []float32, a0, a1, a2, a3 float32) int {
	w := isa.width()
	if len(c) < w || w == 0 {
		return 0
	}
	n := len(c) &^ (w - 1)
	_, _, _, _ = b0[n-1], b1[n-1], b2[n-1], b3[n-1]
	if isa == vecAVX512 {
		axpy4AVX512(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
	} else {
		axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], n, a0, a1, a2, a3)
	}
	return n
}

// axpy1 is axpy4 for the one-row tail, c[j] += a·b[j].
func axpy1(isa vecISA, c, b []float32, a float32) int {
	w := isa.width()
	if len(c) < w || w == 0 {
		return 0
	}
	n := len(c) &^ (w - 1)
	_ = b[n-1]
	if isa == vecAVX512 {
		axpy1AVX512(&c[0], &b[0], n, a)
	} else {
		axpy1AVX2(&c[0], &b[0], n, a)
	}
	return n
}
