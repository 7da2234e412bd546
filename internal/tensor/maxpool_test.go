package tensor

import (
	"fmt"
	"testing"
)

// maxPool2Ref is the definition MaxPool2 is held to, written the plain way:
// each 2×2 window scanned top-left, top-right, bottom-left, bottom-right,
// a later element taken only when it is greater.
func maxPool2Ref(dst, src []float32, planes, h, w int) {
	oh, ow := h/2, w/2
	for pl := 0; pl < planes; pl++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				i := pl*h*w + 2*oy*w + 2*ox
				best := src[i]
				for _, v := range []float32{src[i+1], src[i+w], src[i+w+1]} {
					if v > best {
						best = v
					}
				}
				dst[(pl*oh+oy)*ow+ox] = best
			}
		}
	}
}

// checkMaxPool2 runs MaxPool2 under every kernel this CPU runs — the vector
// bodies and, under the generic kernels, the Go loop — on planes of h×w
// salted with specials, and holds each to maxPool2Ref bit for bit. dst
// carries a guard past its end that must come back untouched.
func checkMaxPool2(t *testing.T, planes, h, w int, seed uint32, special bool) {
	t.Helper()
	src := make([]float32, planes*h*w)
	fillMantissa(src, seed)
	if special {
		saltSpecials(src, seed+7)
	}
	n := planes * (h / 2) * (w / 2)
	want := make([]float32, n)
	maxPool2Ref(want, src, planes, h, w)
	defer SetGEMMKernelForTest(GEMMKernelName())
	for _, k := range GEMMKernels() {
		if !k.Available {
			continue
		}
		SetGEMMKernelForTest(k.Name)
		got := make([]float32, n+17)
		fillMantissa(got, seed+11)
		guard := append([]float32(nil), got[n:]...)
		MaxPool2(got, src, planes, h, w)
		sameBits(t, fmt.Sprintf("%s %d planes %d×%d", k.Name, planes, h, w), got[:n], want)
		sameBits(t, fmt.Sprintf("%s %d planes %d×%d guard", k.Name, planes, h, w), got[n:], guard)
	}
}

// FuzzMaxPoolGeometry drives checkMaxPool2 over plane counts and sizes: odd
// and even heights and widths, rows of fewer outputs than a vector and of
// several vectors with and without a partial last chunk. The seed corpus
// under testdata/fuzz holds the shipped geometries and the edge cases.
func FuzzMaxPoolGeometry(f *testing.F) {
	f.Add(uint8(3), uint8(28), uint8(28), uint32(1), true) // pool1
	f.Add(uint8(3), uint8(12), uint8(12), uint32(2), true) // bpool
	f.Add(uint8(1), uint8(3), uint8(65), uint32(3), false)
	f.Fuzz(func(t *testing.T, planes, h, w uint8, seed uint32, special bool) {
		checkMaxPool2(t, int(planes%6)+1, int(h%40)+2, int(w%90)+2, seed, special)
	})
}

// BenchmarkMaxPool2 times the lightweight classifier's two pooling steps at
// the engine's batch through the vector body and through the Go loop, in ns
// per output. Inputs rotate so the Go loop's compares are not a learned
// pattern.
func BenchmarkMaxPool2(b *testing.B) {
	for _, g := range []struct {
		name    string
		c, h, w int
	}{
		{"pool1-b32", 3, 28, 28},
		{"bpool-b32", 3, 12, 12},
	} {
		const n = 32
		planes := n * g.c
		ins := make([][]float32, 4)
		for i := range ins {
			ins[i] = make([]float32, planes*g.h*g.w)
			fillMantissa(ins[i], uint32(3+i))
		}
		out := make([]float32, planes*(g.h/2)*(g.w/2))
		run := func(b *testing.B, isa vecISA) {
			saved := activeKernel.vec
			defer func() { activeKernel.vec = saved }()
			activeKernel.vec = isa
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MaxPool2(out, ins[i%len(ins)], planes, g.h, g.w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/output")
		}
		b.Run(g.name+"/vector", func(b *testing.B) {
			if activeKernel.vec == vecNone {
				b.Skip("no vector ISA under " + GEMMKernelName())
			}
			run(b, activeKernel.vec)
		})
		b.Run(g.name+"/go", func(b *testing.B) { run(b, vecNone) })
	}
}

// TestMaxPool2RejectsShortOperands pins MaxPool2's operand check: planes
// too small for a window and buffers shorter than the geometry panic rather
// than pool a partial plane.
func TestMaxPool2RejectsShortOperands(t *testing.T) {
	for _, c := range []struct {
		planes, h, w, src, dst int
	}{
		{1, 1, 4, 4, 2},  // no whole window row
		{1, 4, 1, 4, 2},  // no whole window column
		{2, 4, 4, 31, 8}, // src short by one
		{2, 4, 4, 32, 7}, // dst short by one
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: no panic", c)
				}
			}()
			MaxPool2(make([]float32, c.dst), make([]float32, c.src), c.planes, c.h, c.w)
		}()
	}
}
