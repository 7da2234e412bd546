//go:build amd64

package tensor

// Bindings for the vector loops of vec_amd64.s. Each entry point checks the
// slices it is handed against what the routine will touch, then calls the
// routine of the registry entry's instruction set directly — a static,
// noescape call, so the callers' stack operands (the tap offsets and a plane
// group's biases, gemvRow's coefficient group) stay on the stack.

//go:noescape
func tileTailAVX512(c *float32, ldc int, acc, bias *float32, flags int)

//go:noescape
func tileTailAVX2(c *float32, ldc int, acc, bias *float32, flags int)

//go:noescape
func packRows8AVX2(dst, src *float32, lda, blocks int)

//go:noescape
func sigmoidAVX512(dst, src *float32, n int) int

//go:noescape
func sigmoidAVX2(dst, src *float32, n int) int

//go:noescape
func tapConvAVX512(planes, frame, w *float32, off *int, taps, blocks, group, stride int, bias *float32, floor float32)

//go:noescape
func tapConvAVX2(planes, frame, w *float32, off *int, taps, blocks, group, stride int, bias *float32, floor float32)

//go:noescape
func compactRowsAVX512(dst, src *float32, rows, w, stride int)

//go:noescape
func compactRowsAVX2(dst, src *float32, rows, w, stride int)

//go:noescape
func maxPool2AVX512(dst, src *float32, w, outW, rows int)

//go:noescape
func maxPool2AVX2(dst, src *float32, w, outW, rows int)

//go:noescape
func narrowGEMMAVX512(a, b, c *float32, m, k, n, accumulate int)

//go:noescape
func narrowGEMMAVX2(a, b, c *float32, m, k, n, accumulate int)

//go:noescape
func axpy4AVX512(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)

//go:noescape
func axpy1AVX512(c, b *float32, n int, a float32)

//go:noescape
func axpy1AVX2(c, b *float32, n int, a float32)

// tileTail is the write-back of one full tile of the instruction set's
// micro-kernel (8×16 for AVX-512, 8×8 for AVX2): acc's rows, plus C under
// tailAccumulate, plus bias under tailColBias (one value per tile column) or
// tailRowBias (one per tile row), floored at 0 under tailReLU, stored to the
// tile whose first element is c[0] and whose rows are ldc apart. bias is
// read only under a bias flag; the two bias flags do not combine.
func tileTail(isa vecISA, c []float32, ldc int, acc *[maxMR * maxNR]float32, bias []float32, flags int) {
	nr := isa.width()
	_ = c[(maxMR-1)*ldc+nr-1]
	var bp *float32 // stays nil, and unread, without a bias flag
	switch {
	case flags&tailColBias != 0:
		bp = &bias[:nr][0]
	case flags&tailRowBias != 0:
		bp = &bias[:maxMR][0]
	}
	switch isa {
	case vecAVX512:
		tileTailAVX512(&c[0], ldc, &acc[0], bp, flags)
	case vecAVX2:
		tileTailAVX2(&c[0], ldc, &acc[0], bp, flags)
	default:
		panic("tensor: active kernel has no tile write-back routine")
	}
}

// packRows8 packs the leading depths of one full eight-row sliver of a
// row-major A — dst[p·8+i] = src[i·lda+p] — in whole 8×8 blocks and returns
// how many depths that was; packA's Go loop finishes the rest. Both
// instruction sets run the AVX2 transpose: the sliver is eight rows under
// either.
func packRows8(isa vecISA, dst, src []float32, lda, kc int) int {
	n := kc &^ 7
	if isa == vecNone || n == 0 {
		return 0
	}
	_, _ = dst[n*8-1], src[7*lda+n-1]
	packRows8AVX2(&dst[0], &src[0], lda, n/8)
	return n
}

// sigmoidVec runs the instruction set's sigmoid body over the leading whole
// blocks of dst (which may be src, and is no longer than it) and returns how
// many elements it stored: it stops early at a block holding a lane it does
// not trust (SIGMOID_TIE_MARGIN in vec_amd64.s), which the caller computes
// with Sigmoid32.
func sigmoidVec(isa vecISA, dst, src []float32) int {
	switch isa {
	case vecAVX512:
		if n := len(dst) &^ 15; n > 0 {
			return sigmoidAVX512(&dst[0], &src[:n][0], n)
		}
	case vecAVX2:
		if n := len(dst) &^ 7; n > 0 {
			return sigmoidAVX2(&dst[0], &src[:n][0], n)
		}
	}
	return 0
}

// tapConv accumulates a group of g = len(bias) ≤ tapGroup output planes of a
// direct convolution from one pass over the frame: plane j is
// planes[j·stride:][:stride], its kernel w[j·len(off):][:len(off)], and for
// every p in [0, stride), a multiple of tapBlock, plane_j[p] = max(Σ_t
// w_j[t]·frame[p+off[t]] + bias[j], floor) — one fused multiply-add per tap,
// t ascending, from a zero accumulator, then the epilogue's bias add and its
// relu (floor 0; floor −Inf applies none, and a NaN or −0 sum passes either
// floor untouched). Each frame block is loaded once per tap for the whole
// group. frame must reach stride + max(off) elements.
func tapConv(isa vecISA, planes []float32, stride int, frame, w []float32, off []int, bias []float32, floor float32) {
	reach := 0
	for _, o := range off {
		if o < 0 {
			panic("tensor: negative direct-convolution tap offset")
		}
		reach = max(reach, o)
	}
	g := len(bias)
	if len(off) == 0 || g == 0 || g > tapGroup || stride == 0 || stride%tapBlock != 0 ||
		len(planes) < g*stride || len(frame) < stride+reach || len(w) < g*len(off) {
		panic("tensor: direct-convolution operands do not cover the planes")
	}
	switch isa {
	case vecAVX512:
		tapConvAVX512(&planes[0], &frame[0], &w[0], &off[0], len(off), stride/tapBlock, g, stride, &bias[0], floor)
	case vecAVX2:
		tapConvAVX2(&planes[0], &frame[0], &w[0], &off[0], len(off), stride/tapBlock, g, stride, &bias[0], floor)
	default:
		panic("tensor: active kernel has no direct-convolution routine")
	}
}

// compactRows copies rows rows of w floats, stride floats apart from src, to
// dst back to back — a direct-convolution plane, laid over the frame's
// width, into the output's OutH×OutW — a vector at a time.
func compactRows(isa vecISA, dst, src []float32, rows, w, stride int) {
	if rows == 0 || w == 0 {
		return
	}
	_, _ = dst[rows*w-1], src[(rows-1)*stride+w-1]
	switch isa {
	case vecAVX512:
		compactRowsAVX512(&dst[0], &src[0], rows, w, stride)
	case vecAVX2:
		compactRowsAVX2(&dst[0], &src[0], rows, w, stride)
	default:
		panic("tensor: active kernel has no row-compaction routine")
	}
}

// maxPool2Vec is MaxPool2's vector body over rows output rows of outW
// values, rows stored back to back in dst: output row r pools the input row
// pair src[2r·w:] and src[(2r+1)·w:], a vector of outputs at a time and the
// row's last, shorter chunk under a mask.
func maxPool2Vec(isa vecISA, dst, src []float32, w, outW, rows int) {
	if rows == 0 {
		return
	}
	_, _ = dst[rows*outW-1], src[(2*rows-1)*w+2*outW-1]
	switch isa {
	case vecAVX512:
		maxPool2AVX512(&dst[0], &src[0], w, outW, rows)
	case vecAVX2:
		maxPool2AVX2(&dst[0], &src[0], w, outW, rows)
	default:
		panic("tensor: active kernel has no max-pool routine")
	}
}

// narrowGEMM is gemmNaiveRange's body for alpha 1, beta 0 or 1 (accumulate)
// and a C no wider than one vector: the m rows of C = A·B (+ C), A m×k, B
// k×n. It reports whether it ran; without a vector ISA, for a wider C or an
// empty depth it leaves the product to the Go loop.
func narrowGEMM(isa vecISA, a, b, c []float32, m, k, n int, accumulate bool) bool {
	if m == 0 || k == 0 || n == 0 || n > isa.width() {
		return false
	}
	_, _, _ = a[m*k-1], b[k*n-1], c[m*n-1]
	acc := 0
	if accumulate {
		acc = 1
	}
	if isa == vecAVX512 {
		narrowGEMMAVX512(&a[0], &b[0], &c[0], m, k, n, acc)
	} else {
		narrowGEMMAVX2(&a[0], &b[0], &c[0], m, k, n, acc)
	}
	return true
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
