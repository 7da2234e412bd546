package tensor

import (
	"fmt"
	"math"
	"testing"
)

// A product through a PackedB must be the product through the row-major
// operand, bit for bit: same driver, same kernel, same summation order, one
// packing pass fewer.

// forEachKernel runs f under every micro-kernel this CPU can execute with
// the blocked dispatch forced on, restoring both afterwards.
func forEachKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	prevBlocked := SetBlockedKernelForTest(true)
	prevKernel := GEMMKernelName()
	t.Cleanup(func() {
		SetGEMMKernelForTest(prevKernel)
		SetBlockedKernelForTest(prevBlocked)
	})
	for _, k := range GEMMKernels() {
		if !k.Available {
			continue
		}
		SetGEMMKernelForTest(k.Name)
		t.Run(k.Name, f)
	}
}

func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestPackedBMatchesGEMMEpilogue(t *testing.T) {
	type shape struct{ m, k, n int }
	var shapes []shape
	for m := 1; m <= 33; m++ {
		shapes = append(shapes, shape{m, 200 + m, 6*maxNR + m%7 + 1})
	}
	shapes = append(shapes,
		shape{5, 2*blockKC + 3, 2*maxNR + 5},         // several depth blocks
		shape{3, 25, blockNC + maxNR + 3},            // several column blocks
		shape{9, blockKC + 7, blockNC + 2*maxNR - 1}, // both
		shape{blockMC + 3, 64, 4 * maxNR},            // several row blocks
	)
	forEachKernel(t, func(t *testing.T) {
		for _, s := range shapes {
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.k*s.n)
			fillDeterministic(a, uint32(7*s.m+s.k))
			fillDeterministic(b, uint32(11*s.n+s.k))
			b[2] = float32(math.NaN()) // a NaN column through every epilogue
			if !BlockedGEMM(s.m, s.k, s.n) {
				if s.m > 1 {
					t.Fatalf("%v: expected a blocked-path shape", s)
				}
				continue // single rows stay on gemv and the raw operand
			}
			var pb PackedB
			pb.Pack(b, s.k, s.n)
			for ei, ep := range epilogueVariants(s.m, s.n) {
				want := make([]float32, s.m*s.n)
				got := make([]float32, s.m*s.n)
				fillDeterministic(got, 5) // stored, never read
				GEMMEpilogue(a, b, want, s.m, s.k, s.n, ep, nil)
				GEMMEpiloguePacked(a, &pb, got, s.m, ep, nil)
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("%v epilogue %d: packed[%d]=%v, unpacked %v", s, ei, i, got[i], want[i])
				}
			}
		}
	})
}

// TestPackedBStaleAfterKernelChange pins the tag: an operand packed under
// one sliver width is refused under a kernel with another, and accepted
// again after a repack.
func TestPackedBStaleAfterKernelChange(t *testing.T) {
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(true))
	defer SetGEMMKernelForTest(GEMMKernelName())
	const m, k, n = 8, 64, 80
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	fillDeterministic(b, 3)
	SetGEMMKernelForTest("generic-8x8")
	var pb PackedB
	pb.Pack(b, k, n)
	if PackedWidth() != 8 {
		t.Fatalf("PackedWidth() = %d under generic-8x8", PackedWidth())
	}
	SetGEMMKernelForTest("generic-8x16")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("operand packed for nr=8 was accepted under an nr=16 kernel")
			}
		}()
		GEMMEpiloguePacked(a, &pb, c, m, Epilogue{}, nil)
	}()
	pb.Pack(b, k, n)
	GEMMEpiloguePacked(a, &pb, c, m, Epilogue{}, nil)
}

// TestPackedGEMMZeroAllocsNoBPanel: a warm packed product allocates nothing
// and never grows the caller's B panel.
func TestPackedGEMMZeroAllocsNoBPanel(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(true))
	const m, k, n = 32, 300, 200
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	fillDeterministic(a, 1)
	fillDeterministic(b, 2)
	var pb PackedB
	pb.Pack(b, k, n)
	var ps PackScratch
	run := func() { GEMMEpiloguePacked(a, &pb, c, m, Epilogue{Act: EpActReLU}, &ps) }
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("packed GEMM allocates %v/op warm, want 0", allocs)
	}
	if got, max := ps.PanelBytes(), 4*roundUp(m, maxMR)*blockKC; got > max {
		t.Fatalf("PackScratch holds %d B after packed products, want ≤ %d (A panel only)", got, max)
	}
}

func BenchmarkGEMMPackedVsUnpacked(b *testing.B) {
	if !blockedEnabled {
		b.Skip("no FMA micro-kernel on this CPU")
	}
	for _, s := range []struct{ m, k, n int }{{2, 784, 512}, {32, 784, 512}, {3, 25, 32 * 784}} {
		a := make([]float32, s.m*s.k)
		bb := make([]float32, s.k*s.n)
		c := make([]float32, s.m*s.n)
		fillDeterministic(a, 1)
		fillDeterministic(bb, 2)
		var ps PackScratch
		var pb PackedB
		pb.Pack(bb, s.k, s.n)
		b.Run(fmt.Sprintf("unpacked/%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GEMMEpilogue(a, bb, c, s.m, s.k, s.n, Epilogue{Act: EpActReLU}, &ps)
			}
		})
		b.Run(fmt.Sprintf("packed/%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GEMMEpiloguePacked(a, &pb, c, s.m, Epilogue{Act: EpActReLU}, &ps)
			}
		})
	}
}
