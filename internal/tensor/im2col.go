package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry over a C×H×W input.
type ConvDims struct {
	InC, InH, InW int // input channels and spatial extent
	KH, KW        int // kernel height and width
	Stride        int // stride (same for both axes)
	Pad           int // zero padding (same on all sides)
	OutH, OutW    int // derived output extent
}

// NewConvDims validates and completes a convolution geometry.
func NewConvDims(inC, inH, inW, kh, kw, stride, pad int) (ConvDims, error) {
	d := ConvDims{InC: inC, InH: inH, InW: inW, KH: kh, KW: kw, Stride: stride, Pad: pad}
	if inC <= 0 || inH <= 0 || inW <= 0 || kh <= 0 || kw <= 0 {
		return d, fmt.Errorf("tensor: non-positive conv dims %+v", d)
	}
	if stride <= 0 {
		return d, fmt.Errorf("tensor: non-positive stride %d", stride)
	}
	if pad < 0 {
		return d, fmt.Errorf("tensor: negative padding %d", pad)
	}
	// Tested on the sizes, not on the output extent: a kernel that overhangs
	// the padded input by less than a stride truncates to one output pixel.
	if kh > inH+2*pad || kw > inW+2*pad {
		return d, fmt.Errorf("tensor: kernel %dx%d does not fit input %dx%d (pad %d)", kh, kw, inH, inW, pad)
	}
	d.OutH = (inH+2*pad-kh)/stride + 1
	d.OutW = (inW+2*pad-kw)/stride + 1
	return d, nil
}

// ColRows returns the row count of the im2col matrix: InC*KH*KW.
func (d ConvDims) ColRows() int { return d.InC * d.KH * d.KW }

// ColCols returns the column count of the im2col matrix: OutH*OutW.
func (d ConvDims) ColCols() int { return d.OutH * d.OutW }

// Im2Col expands a single C×H×W image (len InC*InH*InW) into the column
// matrix used by GEMM-based convolution. The output has shape
// (InC*KH*KW) × (OutH*OutW) and is written into col, which must have
// capacity ColRows()*ColCols().
//
// Row (c*KH*KW + ky*KW + kx) column (oy*OutW + ox) holds input pixel
// (c, oy*Stride+ky-Pad, ox*Stride+kx-Pad), or 0 when that falls in padding.
func Im2Col(img []float32, d ConvDims, col []float32) {
	rows, cols := d.ColRows(), d.ColCols()
	if len(col) != rows*cols {
		panic(fmt.Sprintf("tensor: Im2Col col len %d, want %d", len(col), rows*cols))
	}
	Im2ColInto(img, d, col, cols, 0)
}

// Im2ColInto writes one image's im2col expansion into a wider column
// matrix whose rows are rowStride long, starting at column colOff. Batched
// convolution lays N samples side by side — sample i at colOff =
// i*ColCols() with rowStride = N*ColCols() — producing a single
// (InC*KH*KW) × (N*OutH*OutW) matrix that feeds one large GEMM instead of
// N small ones.
func Im2ColInto(img []float32, d ConvDims, col []float32, rowStride, colOff int) {
	cols := d.ColCols()
	if len(img) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Im2Col image len %d, want %d", len(img), d.InC*d.InH*d.InW))
	}
	if colOff < 0 || colOff+cols > rowStride {
		panic(fmt.Sprintf("tensor: Im2ColInto column window [%d,%d) outside row stride %d", colOff, colOff+cols, rowStride))
	}
	if need := (d.ColRows()-1)*rowStride + colOff + cols; len(col) < need {
		panic(fmt.Sprintf("tensor: Im2ColInto col len %d, want ≥ %d", len(col), need))
	}
	r := 0
	for c := 0; c < d.InC; c++ {
		plane := img[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				dst := col[r*rowStride+colOff : r*rowStride+colOff+cols]
				// Output columns [lo, hi) of every row read inside the
				// image; the rest is padding.
				lo, hi := d.validSpan(kx)
				for oy := 0; oy < d.OutH; oy++ {
					seg := dst[oy*d.OutW : (oy+1)*d.OutW]
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH || lo == hi {
						clear(seg)
						continue
					}
					clear(seg[:lo])
					clear(seg[hi:])
					ix := lo*d.Stride + kx - d.Pad
					if d.Stride == 1 {
						// One contiguous run of the input row.
						copy(seg[lo:hi], plane[iy*d.InW+ix:])
						continue
					}
					for t := lo; t < hi; t++ {
						seg[t] = plane[iy*d.InW+ix]
						ix += d.Stride
					}
				}
				r++
			}
		}
	}
}

// validSpan returns the range [lo, hi) of output columns ox whose input
// column ox·Stride+kx−Pad falls inside the image: from ceil((Pad−kx)/Stride)
// up to, not including, ceil((InW+Pad−kx)/Stride), clipped to the output
// row. lo ≤ hi; a kernel column that only ever reads padding gives lo = hi.
func (d ConvDims) validSpan(kx int) (lo, hi int) {
	if d.Pad > kx {
		lo = min((d.Pad-kx+d.Stride-1)/d.Stride, d.OutW)
	}
	if d.InW+d.Pad > kx {
		hi = min((d.InW+d.Pad-kx+d.Stride-1)/d.Stride, d.OutW)
	}
	return lo, max(lo, hi)
}

// Im2ColPackedLen returns the storage, in float32s, Im2ColPacked needs for
// n images of geometry d under any registered kernel: the packed operand
// plus, for a padded convolution, one zero-padded copy of an image.
func Im2ColPackedLen(n int, d ConvDims) int {
	need := d.ColRows() * roundUp(n*d.ColCols(), maxNR)
	if d.Pad > 0 {
		need += d.InC * (d.InH + 2*d.Pad) * (d.InW + 2*d.Pad)
	}
	return need
}

// Im2ColPacked expands the n images of in (sample-major rows of
// InC·InH·InW) into the batched column matrix of Im2ColInto —
// (InC·KH·KW) × (n·OutH·OutW), sample i in columns [i·ColCols, (i+1)·ColCols)
// — written directly in PackedB form for the active kernel, so the
// convolution GEMM reads it with no row-major copy in between and no
// packing pass. dst (Im2ColPackedLen(n, d) float32s) provides the storage
// and backs the returned operand.
//
// Each image is first copied into a zero-padded frame, so that no element
// needs a bounds test; the loop then runs over spans of output columns that
// share an output row and a sliver, where every (c, ky, kx) row of the
// matrix is one run of a frame row, nr floats below the previous one.
func Im2ColPacked(dst, in []float32, n int, d ConvDims) PackedB {
	k, cols := d.ColRows(), d.ColCols()
	imgLen := d.InC * d.InH * d.InW
	if len(in) < n*imgLen {
		panic(fmt.Sprintf("tensor: Im2ColPacked input len %d, want ≥ %d", len(in), n*imgLen))
	}
	if len(dst) < Im2ColPackedLen(n, d) {
		panic(fmt.Sprintf("tensor: Im2ColPacked dst len %d, want ≥ %d", len(dst), Im2ColPackedLen(n, d)))
	}
	nr := activeKernel.nr
	pb := PackedB{k: k, n: n * cols, nr: nr}
	pb.data = dst[:k*roundUp(pb.n, nr)]
	fh, fw := d.InH+2*d.Pad, d.InW+2*d.Pad
	var frame []float32
	if d.Pad > 0 {
		frame = dst[len(dst)-d.InC*fh*fw:]
		clear(frame)
	}
	for i := 0; i < n; i++ {
		img := in[i*imgLen : (i+1)*imgLen]
		if d.Pad > 0 {
			d.fillFrame(frame, img)
			img = frame
		}
		for oy := 0; oy < d.OutH; oy++ {
			j := i*cols + oy*d.OutW
			for ox0 := 0; ox0 < d.OutW; {
				cnt := min(d.OutW-ox0, nr-(j+ox0)%nr)
				pb.im2colSpan(img, d, fh, fw, j+ox0, oy, ox0, cnt)
				ox0 += cnt
			}
		}
	}
	if pad := pb.n % nr; pad != 0 {
		// The last sliver's columns past n: packB's zero padding.
		pb.zeroColumns(pb.n, nr-pad)
	}
	return pb
}

// fillFrame copies one image into the interior of its zero-padded frame
// (InC × (InH+2·Pad) × (InW+2·Pad)); the border is the caller's to clear,
// once for any number of images.
func (d ConvDims) fillFrame(frame, img []float32) {
	fh, fw := d.InH+2*d.Pad, d.InW+2*d.Pad
	for cy := 0; cy < d.InC*d.InH; cy++ {
		c, y := cy/d.InH, cy%d.InH
		copy(frame[(c*fh+y+d.Pad)*fw+d.Pad:], img[cy*d.InW:(cy+1)*d.InW])
	}
}

// im2colSpan writes matrix columns [j, j+cnt) — output pixels (oy, ox0…) of
// the image whose padded frame (InC × fh × fw) is img, all inside one sliver
// — for every depth row.
func (pb *PackedB) im2colSpan(img []float32, d ConvDims, fh, fw, j, oy, ox0, cnt int) {
	r, pcEnd, off := 0, 0, 0
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			row := img[(c*fh+oy*d.Stride+ky)*fw+ox0*d.Stride:]
			for kx := 0; kx < d.KW; kx++ {
				if r == pcEnd { // entering the depth block that starts at r
					off = pb.at(r, j)
					pcEnd = r + blockKC
				}
				seg := pb.data[off : off+cnt]
				if d.Stride == 1 {
					copy(seg, row[kx:])
				} else {
					for t := range seg {
						seg[t] = row[kx+t*d.Stride]
					}
				}
				r++
				off += pb.nr
			}
		}
	}
}

// zeroColumns clears matrix columns [j, j+cnt), all inside one sliver, for
// every depth row.
func (pb *PackedB) zeroColumns(j, cnt int) {
	for pc := 0; pc < pb.k; pc += blockKC {
		off := pb.at(pc, j)
		for p := pc; p < min(pc+blockKC, pb.k); p++ {
			clear(pb.data[off : off+cnt])
			off += pb.nr
		}
	}
}

// Col2Im scatters a column matrix back into image space, accumulating
// overlapping contributions. It is the adjoint of Im2Col and is used for the
// gradient with respect to the convolution input. img must be pre-zeroed by
// the caller if accumulation from a clean slate is desired.
func Col2Im(col []float32, d ConvDims, img []float32) {
	rows, cols := d.ColRows(), d.ColCols()
	if len(img) != d.InC*d.InH*d.InW {
		panic(fmt.Sprintf("tensor: Col2Im image len %d, want %d", len(img), d.InC*d.InH*d.InW))
	}
	if len(col) != rows*cols {
		panic(fmt.Sprintf("tensor: Col2Im col len %d, want %d", len(col), rows*cols))
	}
	r := 0
	for c := 0; c < d.InC; c++ {
		plane := img[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				src := col[r*cols : (r+1)*cols]
				si := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					if iy < 0 || iy >= d.InH {
						si += d.OutW
						continue
					}
					rowBase := iy * d.InW
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if ix >= 0 && ix < d.InW {
							plane[rowBase+ix] += src[si]
						}
						si++
					}
				}
				r++
			}
		}
	}
}
