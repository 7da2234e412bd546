package tensor

import (
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
)

func TestNewConvDims(t *testing.T) {
	d, err := NewConvDims(1, 28, 28, 5, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.OutH != 24 || d.OutW != 24 {
		t.Fatalf("out dims %dx%d, want 24x24", d.OutH, d.OutW)
	}
	d, err = NewConvDims(3, 8, 8, 3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.OutH != 4 || d.OutW != 4 {
		t.Fatalf("out dims %dx%d, want 4x4", d.OutH, d.OutW)
	}
}

func TestNewConvDimsErrors(t *testing.T) {
	cases := []struct {
		name                         string
		c, h, w, kh, kw, stride, pad int
	}{
		{"kernel too big", 1, 4, 4, 5, 5, 1, 0},
		{"kernel overhangs the padded input by less than a stride", 1, 3, 2, 7, 7, 3, 2},
		{"zero stride", 1, 8, 8, 3, 3, 0, 0},
		{"negative pad", 1, 8, 8, 3, 3, 1, -1},
		{"zero channels", 0, 8, 8, 3, 3, 1, 0},
	}
	for _, tc := range cases {
		if _, err := NewConvDims(tc.c, tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// naiveConv performs direct convolution for cross-checking the GEMM path.
func naiveConv(img []float32, d ConvDims, w []float32, outC int) []float32 {
	out := make([]float32, outC*d.OutH*d.OutW)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < d.OutH; oy++ {
			for ox := 0; ox < d.OutW; ox++ {
				var s float32
				for c := 0; c < d.InC; c++ {
					for ky := 0; ky < d.KH; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						if iy < 0 || iy >= d.InH {
							continue
						}
						for kx := 0; kx < d.KW; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if ix < 0 || ix >= d.InW {
								continue
							}
							wv := w[((oc*d.InC+c)*d.KH+ky)*d.KW+kx]
							s += wv * img[(c*d.InH+iy)*d.InW+ix]
						}
					}
				}
				out[(oc*d.OutH+oy)*d.OutW+ox] = s
			}
		}
	}
	return out
}

func TestIm2ColGEMMEqualsNaiveConv(t *testing.T) {
	r := rng.New(10)
	geoms := []struct{ c, h, w, kh, kw, stride, pad, outC int }{
		{1, 28, 28, 5, 5, 1, 0, 5},
		{3, 12, 14, 3, 3, 1, 1, 4},
		{2, 9, 9, 3, 3, 2, 0, 3},
		{4, 7, 7, 5, 5, 1, 2, 2},
	}
	for _, g := range geoms {
		d, err := NewConvDims(g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatal(err)
		}
		img := make([]float32, g.c*g.h*g.w)
		for i := range img {
			img[i] = r.NormFloat32()
		}
		w := make([]float32, g.outC*g.c*g.kh*g.kw)
		for i := range w {
			w[i] = r.NormFloat32()
		}
		col := make([]float32, d.ColRows()*d.ColCols())
		Im2Col(img, d, col)
		wMat := FromSlice(w, g.outC, d.ColRows())
		colMat := FromSlice(col, d.ColRows(), d.ColCols())
		got := MatMul(wMat, colMat)
		want := naiveConv(img, d, w, g.outC)
		for i := range want {
			if !almostEq(float64(got.Data[i]), float64(want[i]), 1e-3) {
				t.Fatalf("geom %+v: element %d: gemm %v naive %v", g, i, got.Data[i], want[i])
			}
		}
	}
}

// TestCol2ImAdjoint verifies <Im2Col(x), y> == <x, Col2Im(y)>, the defining
// property of an adjoint pair, which is exactly what backprop requires.
func TestCol2ImAdjoint(t *testing.T) {
	r := rng.New(11)
	d, err := NewConvDims(2, 10, 10, 3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, d.InC*d.InH*d.InW)
	for i := range x {
		x[i] = r.NormFloat32()
	}
	y := make([]float32, d.ColRows()*d.ColCols())
	for i := range y {
		y[i] = r.NormFloat32()
	}
	colX := make([]float32, len(y))
	Im2Col(x, d, colX)
	var lhs float64
	for i := range y {
		lhs += float64(colX[i]) * float64(y[i])
	}
	imgY := make([]float32, len(x))
	Col2Im(y, d, imgY)
	var rhs float64
	for i := range x {
		rhs += float64(x[i]) * float64(imgY[i])
	}
	if !almostEq(lhs, rhs, 1e-2*(1+abs64(lhs))) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: Im2Col output contains only values present in the padded input
// (every entry is either 0 or a copy of some input pixel).
func TestQuickIm2ColValuesFromInput(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := r.Intn(6) + 5
		w := r.Intn(6) + 5
		d, err := NewConvDims(1, h, w, 3, 3, 1, 1)
		if err != nil {
			return false
		}
		img := make([]float32, h*w)
		present := map[float32]bool{0: true}
		for i := range img {
			img[i] = r.NormFloat32()
			present[img[i]] = true
		}
		col := make([]float32, d.ColRows()*d.ColCols())
		Im2Col(img, d, col)
		for _, v := range col {
			if !present[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIm2Col28x28(b *testing.B) {
	d, _ := NewConvDims(1, 28, 28, 5, 5, 1, 0)
	img := make([]float32, 28*28)
	col := make([]float32, d.ColRows()*d.ColCols())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2Col(img, d, col)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	a, bb := New(128, 128), New(128, 128)
	a.RandNormal(r, 0, 1)
	bb.RandNormal(r, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MatMul(a, bb)
	}
}

func BenchmarkMatMulNaive128(b *testing.B) {
	r := rng.New(1)
	a, bb := New(128, 128), New(128, 128)
	a.RandNormal(r, 0, 1)
	bb.RandNormal(r, 0, 1)
	for i := 0; i < b.N; i++ {
		_ = naiveMatMul(a, bb)
	}
}
