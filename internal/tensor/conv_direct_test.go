package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The direct convolution against the path it replaces for small-OutC steps:
// Im2ColPacked, the blocked GEMM, regroup to sample-major. Same bits, under
// every kernel that comes with a tap-accumulate routine, at every batch size.

// convViaIm2Col is a conv step through im2col and the blocked micro-kernel,
// into caller-owned buffers: col (Im2ColPackedLen), chanMajor
// (outC·n·ColCols) and the sample-major out. It calls the blocked driver
// itself, because the direct path serves products (a single channel, a batch
// of one) that the blocked gate sends elsewhere and GEMMEpiloguePacked
// refuses.
func convViaIm2Col(col, chanMajor, out, in []float32, n int, d ConvDims, w []float32, outC int, ep Epilogue, ps *PackScratch) {
	k, cols := d.ColRows(), d.ColCols()
	pb := Im2ColPacked(col, in, n, d)
	gemmBlocked(w, k, 1, nil, 0, 0, chanMajor, outC, k, n*cols, 1, 0, ep, ps, &pb)
	for i := 0; i < n; i++ {
		for oc := 0; oc < outC; oc++ {
			copy(out[(i*outC+oc)*cols:][:cols], chanMajor[oc*n*cols+i*cols:])
		}
	}
}

// checkDirectConv holds ConvDirect to convViaIm2Col for every epilogue a
// conv step can carry, under the active kernel. It reports whether the
// direct path serves the shape at all. special scatters ±0, ±Inf and NaNs
// of two payloads through the image, zeros and +Inf through the weights, and
// gives the second channel a NaN bias of a third payload, so that where a
// NaN sum meets it the bias add shows which operand it keeps.
func checkDirectConv(t *testing.T, d ConvDims, outC, n int, seed uint32, special bool) bool {
	t.Helper()
	if !DirectConv(outC, d) {
		return false
	}
	in := make([]float32, n*d.InC*d.InH*d.InW)
	w := make([]float32, outC*d.ColRows())
	bias := make([]float32, outC)
	fillMantissa(in, seed)
	fillMantissa(w, seed+17)
	fillMantissa(bias, seed+29)
	if special {
		odd := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
			math.Float32frombits(0x7FC00001), math.Float32frombits(0xFFC00A5A)}
		for i := 0; i < len(in); i += 7 {
			in[i] = odd[(i/7)%len(odd)]
		}
		for i := 3; i < len(w); i += 11 {
			w[i] = odd[(i/11)%3] // zeros and +Inf; NaN weights would leave nothing to compare
		}
		if outC > 1 {
			bias[1] = math.Float32frombits(0x7FC12345)
		}
	}
	for _, ep := range []Epilogue{
		{},
		{RowBias: bias},
		{Act: EpActReLU, RowBias: bias},
		{Act: EpActReLU},
		{Act: EpActSigmoid, RowBias: bias},
	} {
		want := make([]float32, n*outC*d.ColCols())
		convViaIm2Col(make([]float32, Im2ColPackedLen(n, d)), make([]float32, len(want)), want, in, n, d, w, outC, ep, nil)
		scratch := make([]float32, ConvDirectLen(d, outC))
		fillDeterministic(scratch, 5) // stale frame and slack must not show
		got := make([]float32, len(want))
		ConvDirect(scratch, in, n, d, w, outC, ep, got)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s %+v outC=%d n=%d act=%d bias=%v: direct[%d] = %v (%#x), im2col+GEMM %v (%#x)", GEMMKernelName(), d, outC, n,
				ep.Act, ep.RowBias != nil, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
	return true
}

func TestDirectConvMatchesIm2ColGEMM(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		if activeKernel.vec == vecNone {
			conv1, _ := NewConvDims(1, 28, 28, 5, 5, 1, 2)
			if DirectConv(3, conv1) {
				t.Fatal("direct path offered under a kernel without a tap-accumulate routine")
			}
			return
		}
		for _, g := range []struct {
			c, h, w, kh, kw, pad, outC, n int
			direct                        bool
		}{
			{1, 28, 28, 5, 5, 2, 3, 1, true},  // conv1, the paper's one hard image
			{1, 28, 28, 5, 5, 2, 3, 32, true}, // conv1 at the engine's batch
			{3, 14, 14, 3, 3, 0, 3, 32, true}, // bconv
			{3, 14, 14, 3, 3, 0, 3, 3, true},  // bconv, an odd batch
			{3, 14, 14, 3, 3, 0, 3, 2, true},  // bconv, the smallest batch of more than one image
			{3, 14, 14, 3, 3, 0, 3, 1, true},  // bconv on the paper's one hard image
			{1, 28, 28, 5, 5, 2, 1, 7, true},  // pruned lightweight, one channel: a single-row product
			{1, 28, 28, 5, 5, 2, 2, 7, true},
			{3, 14, 14, 5, 5, 0, 7, 7, true},   // widest OutC below mr
			{3, 14, 14, 5, 5, 0, 8, 7, false},  // a full tile of rows keeps im2col
			{10, 9, 9, 5, 5, 1, 3, 9, true},    // 250 taps: the last single depth block
			{11, 9, 9, 5, 5, 1, 3, 9, false},   // 275: two depth blocks
			{2, 5, 37, 3, 3, 1, 3, 40, true},   // plane of 181 = 2·64 + 53 positions
			{1, 20, 20, 1, 4, 0, 5, 30, true},  // one-row kernel
			{4, 12, 12, 3, 1, 2, 5, 30, true},  // one-column kernel, frame wider than the window needs
			{1, 8, 8, 8, 8, 0, 3, 600, true},   // one output pixel a plane: the last tap reads the frame's last element
			{2, 6, 6, 6, 6, 3, 4, 100, true},   // kernel as large as the image, padded
			{1, 28, 28, 5, 5, 2, 3, 100, true}, // 78 400 columns: many column blocks in the reference
		} {
			d, err := NewConvDims(g.c, g.h, g.w, g.kh, g.kw, 1, g.pad)
			if err != nil {
				t.Fatal(err)
			}
			for _, special := range []bool{false, true} {
				if got := checkDirectConv(t, d, g.outC, g.n, uint32(g.c*131+g.n), special); got != g.direct {
					t.Fatalf("%+v outC=%d n=%d: DirectConv = %v, want %v", d, g.outC, g.n, got, g.direct)
				}
			}
		}
		stride2, _ := NewConvDims(1, 28, 28, 5, 5, 2, 2)
		if DirectConv(3, stride2) {
			t.Fatal("direct path offered for a strided convolution")
		}
		bconv, _ := NewConvDims(3, 14, 14, 3, 3, 1, 0)
		prev := SetBlockedKernelForTest(false)
		offered := DirectConv(3, bconv)
		SetBlockedKernelForTest(prev)
		if offered {
			t.Fatal("direct path offered with the blocked path switched off")
		}
	})
}

// FuzzDirectConvGeometry drives the comparison over arbitrary small
// geometries and batches under every kernel this CPU runs, each at every
// channel count the direct path serves (1 to mr−1): whole plane groups,
// groups with one or two planes left over, and a lone short group. The
// seed corpus under testdata/fuzz holds planes that are and are not a vector
// multiple, and frames whose last tap reads the final element; outC is kept
// in the signature so the corpus still decodes, and no longer chooses.
func FuzzDirectConvGeometry(f *testing.F) {
	f.Add(uint8(1), uint8(28), uint8(28), uint8(5), uint8(5), uint8(2), uint8(3), uint8(2), uint32(1), false)
	f.Add(uint8(3), uint8(14), uint8(14), uint8(3), uint8(3), uint8(0), uint8(3), uint8(5), uint32(2), true)
	f.Add(uint8(1), uint8(8), uint8(8), uint8(8), uint8(8), uint8(0), uint8(7), uint8(200), uint32(3), true)
	f.Add(uint8(2), uint8(5), uint8(31), uint8(3), uint8(3), uint8(1), uint8(2), uint8(40), uint32(4), false)
	f.Add(uint8(2), uint8(14), uint8(14), uint8(3), uint8(3), uint8(0), uint8(3), uint8(0), uint32(5), true) // bconv's geometry, one image
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, pad, _, n uint8, seed uint32, special bool) {
		d, err := NewConvDims(int(c%12)+1, int(h%33), int(w%33), int(kh%9), int(kw%9), 1, int(pad%4))
		if err != nil {
			t.Skip()
		}
		defer SetBlockedKernelForTest(SetBlockedKernelForTest(true))
		defer SetGEMMKernelForTest(GEMMKernelName())
		for _, k := range GEMMKernels() {
			if k.Available {
				SetGEMMKernelForTest(k.Name)
				for outC := 1; outC < k.MR; outC++ {
					checkDirectConv(t, d, outC, int(n)+1, seed, special)
				}
			}
		}
	})
}

// BenchmarkDirectConv times the two conv steps of the lightweight classifier
// on the paper's one hard image and at the engine's batch, direct — their
// three channels as one plane group, compacted by the vector row copy —
// against im2col + the blocked GEMM + regroup, in GFLOP/s of the convolution
// itself.
func BenchmarkDirectConv(b *testing.B) {
	for _, g := range []struct {
		name            string
		c, h, w, k, pad int
		n               int
	}{
		{"conv1", 1, 28, 28, 5, 2, 1},
		{"conv1", 1, 28, 28, 5, 2, 32},
		{"bconv", 3, 14, 14, 3, 0, 1},
		{"bconv", 3, 14, 14, 3, 0, 32},
	} {
		d, _ := NewConvDims(g.c, g.h, g.w, g.k, g.k, 1, g.pad)
		n, outC := g.n, 3
		// Inputs rotate so the relu floor is not a learned pattern.
		ins := make([][]float32, 4)
		for i := range ins {
			ins[i] = make([]float32, n*g.c*g.h*g.w)
			fillDeterministic(ins[i], uint32(3+i))
		}
		w := make([]float32, outC*d.ColRows())
		bias := make([]float32, outC)
		fillDeterministic(w, 7)
		fillDeterministic(bias, 9)
		ep := Epilogue{Act: EpActReLU, RowBias: bias}
		out := make([]float32, n*outC*d.ColCols())
		gflops := func(b *testing.B) {
			b.ReportMetric(2*float64(outC*d.ColRows()*n*d.ColCols())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		}
		b.Run(fmt.Sprintf("%s/b%d/direct", g.name, n), func(b *testing.B) {
			if !DirectConv(outC, d) {
				b.Skip("no tap-accumulate routine under " + GEMMKernelName())
			}
			scratch := make([]float32, ConvDirectLen(d, outC))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ConvDirect(scratch, ins[i%len(ins)], n, d, w, outC, ep, out)
			}
			gflops(b)
		})
		b.Run(fmt.Sprintf("%s/b%d/im2col", g.name, n), func(b *testing.B) {
			if !blockedEnabled {
				b.Skip("no FMA micro-kernel on this CPU")
			}
			col := make([]float32, Im2ColPackedLen(n, d))
			chanMajor := make([]float32, outC*n*d.ColCols())
			var ps PackScratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				convViaIm2Col(col, chanMajor, out, ins[i%len(ins)], n, d, w, outC, ep, &ps)
			}
			gflops(b)
		})
	}
}
