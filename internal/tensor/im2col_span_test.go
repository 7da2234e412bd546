package tensor

import (
	"fmt"
	"testing"
)

// The span-copy im2col, the packed im2col and the span col2im against the
// loops they replaced, kept here as the references: one bounds test and one
// store (or add) per element.

// im2colRef is the element-wise Im2ColInto the span version replaced.
func im2colRef(img []float32, d ConvDims, col []float32, rowStride, colOff int) {
	cols := d.ColCols()
	r := 0
	for c := 0; c < d.InC; c++ {
		plane := img[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				dst := col[r*rowStride+colOff : r*rowStride+colOff+cols]
				di := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if iy < 0 || iy >= d.InH || ix < 0 || ix >= d.InW {
							dst[di] = 0
						} else {
							dst[di] = plane[iy*d.InW+ix]
						}
						di++
					}
				}
				r++
			}
		}
	}
}

// col2imRef is the element-wise Col2ImFrom.
func col2imRef(img []float32, d ConvDims, col []float32, rowStride, colOff int) {
	cols := d.ColCols()
	r := 0
	for c := 0; c < d.InC; c++ {
		plane := img[c*d.InH*d.InW : (c+1)*d.InH*d.InW]
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				src := col[r*rowStride+colOff : r*rowStride+colOff+cols]
				si := 0
				for oy := 0; oy < d.OutH; oy++ {
					iy := oy*d.Stride + ky - d.Pad
					for ox := 0; ox < d.OutW; ox++ {
						ix := ox*d.Stride + kx - d.Pad
						if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
							plane[iy*d.InW+ix] += src[si]
						}
						si++
					}
				}
				r++
			}
		}
	}
}

// checkIm2Col compares both production expansions of n images of geometry
// d with the reference: Im2ColInto into the batched row-major matrix, and
// Im2ColPacked with that matrix packed by the GEMM's own packB, under every
// kernel this CPU runs — and the adjoint, Col2ImFrom, which adds each
// image's window of a batched matrix back into an image that already holds
// values.
func checkIm2Col(t *testing.T, d ConvDims, n int) {
	t.Helper()
	imgLen := d.InC * d.InH * d.InW
	rows, cols := d.ColRows(), d.ColCols()
	in := make([]float32, n*imgLen)
	fillDeterministic(in, uint32(imgLen+n))
	for i := range in {
		if in[i] == 0 {
			in[i] = 0.5 // padding is the only source of zeros
		}
	}
	want := make([]float32, rows*n*cols)
	got := make([]float32, rows*n*cols)
	fillDeterministic(got, 9) // every element must be overwritten
	for i := 0; i < n; i++ {
		im2colRef(in[i*imgLen:(i+1)*imgLen], d, want, n*cols, i*cols)
		Im2ColInto(in[i*imgLen:(i+1)*imgLen], d, got, n*cols, i*cols)
	}
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("%+v n=%d: span im2col[%d] (row %d col %d) = %v, reference %v", d, n, i, i/(n*cols), i%(n*cols), got[i], want[i])
	}

	// got, overwritten with values, is the column matrix col2im reads.
	fillDeterministic(got, 17)
	imgWant, imgGot := make([]float32, n*imgLen), make([]float32, n*imgLen)
	fillDeterministic(imgWant, 19)
	copy(imgGot, imgWant)
	for i := 0; i < n; i++ {
		col2imRef(imgWant[i*imgLen:(i+1)*imgLen], d, got, n*cols, i*cols)
		Col2ImFrom(imgGot[i*imgLen:(i+1)*imgLen], d, got, n*cols, i*cols)
	}
	if i, ok := bitsEqual(imgGot, imgWant); !ok {
		t.Fatalf("%+v n=%d: span col2im[%d] = %v, reference %v", d, n, i, imgGot[i], imgWant[i])
	}

	prev := GEMMKernelName()
	defer SetGEMMKernelForTest(prev)
	for _, k := range GEMMKernels() {
		if !k.Available {
			continue
		}
		SetGEMMKernelForTest(k.Name)
		var ref PackedB
		ref.Pack(want, rows, n*cols)
		dst := make([]float32, Im2ColPackedLen(n, d))
		fillDeterministic(dst, 13)
		pb := Im2ColPacked(dst, in, n, d)
		if pb.k != ref.k || pb.n != ref.n || pb.nr != ref.nr || len(pb.data) != len(ref.data) {
			t.Fatalf("%+v n=%d %s: packed im2col geometry %d×%d nr=%d len %d, want %d×%d nr=%d len %d",
				d, n, k.Name, pb.k, pb.n, pb.nr, len(pb.data), ref.k, ref.n, ref.nr, len(ref.data))
		}
		if i, ok := bitsEqual(pb.data, ref.data); !ok {
			t.Fatalf("%+v n=%d %s: packed im2col[%d] = %v, packB of the reference %v", d, n, k.Name, i, pb.data[i], ref.data[i])
		}
	}
}

func TestIm2ColSpanAndPackedMatchReference(t *testing.T) {
	for _, g := range []struct{ c, h, w, kh, kw, stride, pad, n int }{
		{1, 28, 28, 5, 5, 1, 2, 3},  // conv1
		{3, 14, 14, 3, 3, 1, 0, 15}, // bconv; 15·144 columns crosses a column block
		{3, 14, 14, 5, 5, 1, 0, 2},  // conv2
		{48, 5, 5, 5, 5, 1, 0, 7},   // conv3: 1200 depth rows, several depth blocks, 1 column a sample
		{48, 6, 7, 3, 3, 1, 1, 2},
		{1, 3, 3, 7, 7, 1, 2, 5},   // kernel wider than the padded edge: rows of pure padding
		{3, 4, 3, 5, 6, 1, 2, 4},   // ditto, asymmetric
		{1, 9, 9, 3, 3, 2, 0, 3},   // stride 2
		{3, 9, 11, 3, 3, 2, 1, 20}, // stride 2, padded
		{3, 10, 8, 5, 3, 2, 2, 4},
		{1, 7, 40, 3, 3, 1, 1, 60}, // output rows wider than two slivers, many column blocks
		{1, 5, 5, 1, 1, 1, 0, 1},
		{1, 5, 5, 1, 1, 3, 1, 2},
	} {
		d, err := NewConvDims(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		checkIm2Col(t, d, g.n)
	}
}

// FuzzIm2ColGeometry drives both expansions and col2im over arbitrary small geometries.
// The seed corpus under testdata/fuzz holds the geometries that exercised a
// boundary while this was written; `go test` replays it.
func FuzzIm2ColGeometry(f *testing.F) {
	f.Add(uint8(1), uint8(28), uint8(28), uint8(5), uint8(5), uint8(1), uint8(2), uint8(2))
	f.Add(uint8(3), uint8(9), uint8(11), uint8(3), uint8(3), uint8(2), uint8(1), uint8(5))
	f.Add(uint8(1), uint8(3), uint8(3), uint8(7), uint8(7), uint8(1), uint8(2), uint8(3))
	f.Add(uint8(48), uint8(5), uint8(5), uint8(5), uint8(5), uint8(1), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, pad, n uint8) {
		d, err := NewConvDims(int(c%50), int(h%33), int(w%33), int(kh%9), int(kw%9), int(stride%4), int(pad%4))
		if err != nil {
			t.Skip()
		}
		checkIm2Col(t, d, int(n%6)+1)
	})
}

func BenchmarkIm2ColBatch32(b *testing.B) {
	for _, g := range []struct {
		name                         string
		c, h, w, kh, kw, stride, pad int
	}{
		{"conv1", 1, 28, 28, 5, 5, 1, 2},
		{"bconv", 3, 14, 14, 3, 3, 1, 0},
	} {
		d, _ := NewConvDims(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		const n = 32
		imgLen := d.InC * d.InH * d.InW
		in := make([]float32, n*imgLen)
		fillDeterministic(in, 3)
		col := make([]float32, Im2ColPackedLen(n, d))
		b.Run(fmt.Sprintf("%s/reference", g.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					im2colRef(in[s*imgLen:(s+1)*imgLen], d, col, n*d.ColCols(), s*d.ColCols())
				}
			}
		})
		b.Run(fmt.Sprintf("%s/span", g.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < n; s++ {
					Im2ColInto(in[s*imgLen:(s+1)*imgLen], d, col, n*d.ColCols(), s*d.ColCols())
				}
			}
		})
		b.Run(fmt.Sprintf("%s/packed", g.name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2ColPacked(col, in, n, d)
			}
		})
	}
}
