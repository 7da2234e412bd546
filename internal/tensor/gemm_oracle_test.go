package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The blocked kernel must agree with the retained naive reference across
// every tile-edge shape: sizes straddling the mr/nr/blockKC boundaries,
// all alpha/beta combinations the layers use, and both transpose variants.

func fillDeterministic(data []float32, seed uint32) {
	s := seed
	for i := range data {
		// xorshift32: cheap, full-period, no test-order coupling.
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		data[i] = float32(int32(s%2048)-1024) / 1024
	}
}

// maxAbsDiff returns the largest elementwise |a-b|.
func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// oracleTol is the acceptance bound for blocked vs naive results. The FMA
// kernel skips the intermediate rounding of mul-then-add, so results are
// not bit-identical; with |a|,|b| < 1 and k ≤ 520 the drift stays orders of
// magnitude below this.
const oracleTol = 1e-5

func checkGEMMOracle(t *testing.T, m, k, n int, alpha, beta float32) {
	t.Helper()
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	cInit := make([]float32, m*n)
	fillDeterministic(a, uint32(m*1000003+k*997+n+1))
	fillDeterministic(b, uint32(n*1000033+m*991+k+2))
	fillDeterministic(cInit, uint32(k*1000211+n*983+m+3))

	want := append([]float32(nil), cInit...)
	gemmNaive(a, b, want, m, k, n, alpha, beta)

	got := append([]float32(nil), cInit...)
	gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, alpha, beta, Epilogue{}, nil, nil)

	if d := maxAbsDiff(got, want); d > oracleTol {
		t.Fatalf("blocked GEMM %dx%dx%d alpha=%v beta=%v: max abs diff %g vs naive", m, k, n, alpha, beta, d)
	}
}

func TestBlockedGEMMOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 63, 64, 65}
	alphaBetas := [][2]float32{{1, 0}, {1, 1}, {2, 0}, {0.5, 1}, {1.5, -0.5}}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				// Cover every alpha/beta at the small shapes; thin the
				// combinatorial space at the larger ones.
				combos := alphaBetas
				if m > 17 || k > 17 || n > 17 {
					combos = alphaBetas[:2]
				}
				for _, ab := range combos {
					checkGEMMOracle(t, m, k, n, ab[0], ab[1])
				}
			}
		}
	}
}

// TestBlockedGEMMBlockBoundaries pins shapes that straddle the cache-block
// parameters, where panel edge handling (partial kc/mc/nc) is exercised.
func TestBlockedGEMMBlockBoundaries(t *testing.T) {
	mr, nr := activeKernel.mr, activeKernel.nr
	for _, s := range []struct{ m, k, n int }{
		{blockMC - 1, blockKC + 1, nr + 1},
		{blockMC + 3, blockKC - 1, 2*nr - 1},
		{mr + 1, 2*blockKC + 5, nr},
		{2*blockMC + mr - 1, 37, 3*nr + 5},
		{5, blockKC, blockNC/8 + 3},
	} {
		checkGEMMOracle(t, s.m, s.k, s.n, 1, 0)
		checkGEMMOracle(t, s.m, s.k, s.n, 0.5, 1)
	}
}

// TestGEMMDispatchOracle drives the public entry point (whatever path it
// picks on this machine) against the naive reference.
func TestGEMMDispatchOracle(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 200, 84}, // gemv path
		{16, 256, 84},
		{48, 75, 3200},
		{33, 129, 65},
	} {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.k*s.n)
		fillDeterministic(a, 11)
		fillDeterministic(b, 23)
		want := make([]float32, s.m*s.n)
		gemmNaive(a, b, want, s.m, s.k, s.n, 1, 0)
		got := make([]float32, s.m*s.n)
		GEMM(a, b, got, s.m, s.k, s.n, 1, 0)
		if d := maxAbsDiff(got, want); d > oracleTol {
			t.Fatalf("GEMM dispatch %dx%dx%d: max abs diff %g", s.m, s.k, s.n, d)
		}
	}
}

// TestTransposeOracle checks the strided packing used by MatMulTransA and
// MatMulTransB against transpose-then-multiply with the naive kernel.
func TestTransposeOracle(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{9, 13, 17}, {64, 65, 63}, {130, 40, 72}, {75, 100, 48},
	} {
		a := New(s.k, s.m) // stored k×m, logically transposed to m×k
		b := New(s.k, s.n)
		fillDeterministic(a.Data, 31)
		fillDeterministic(b.Data, 37)
		want := MatMul(a.Transpose(), b)
		got := MatMulTransA(a, b)
		if d := maxAbsDiff(got.Data, want.Data); d > oracleTol {
			t.Fatalf("MatMulTransA %v: max abs diff %g", s, d)
		}

		a2 := New(s.m, s.k)
		b2 := New(s.n, s.k) // stored n×k, logically transposed to k×n
		fillDeterministic(a2.Data, 41)
		fillDeterministic(b2.Data, 43)
		want2 := MatMul(a2, b2.Transpose())
		got2 := MatMulTransB(a2, b2)
		if d := maxAbsDiff(got2.Data, want2.Data); d > oracleTol {
			t.Fatalf("MatMulTransB %v: max abs diff %g", s, d)
		}
	}
}

// TestMicroKernelParityAll compares every registered micro-kernel this CPU
// can run (assembly and generic alike) against a freshly built portable
// kernel of the same tile shape, on padded and ragged depths including
// kc=0 (the adapter's zero-fill path).
func TestMicroKernelParityAll(t *testing.T) {
	for _, k := range kernelTable {
		if !k.available {
			t.Logf("skipping %s: not available on this CPU", k.name)
			continue
		}
		ref := genericKernel(k.mr, k.nr)
		t.Run(k.name, func(t *testing.T) {
			for _, kc := range []int{0, 1, 2, 7, 64, 255, 256} {
				ap := make([]float32, max(kc, 1)*k.mr)
				bp := make([]float32, max(kc, 1)*k.nr)
				fillDeterministic(ap, uint32(kc+51))
				fillDeterministic(bp, uint32(kc+53))
				var want, got [maxMR * maxNR]float32
				fillDeterministic(want[:], 77) // stale garbage the kernel must overwrite
				fillDeterministic(got[:], 77)
				ref(kc, ap, bp, &want)
				k.fn(kc, ap, bp, &got)
				if d := maxAbsDiff(got[:k.mr*k.nr], want[:k.mr*k.nr]); d > oracleTol {
					t.Fatalf("kernel %s kc=%d: max abs diff %g vs generic %dx%d", k.name, kc, d, k.mr, k.nr)
				}
			}
		})
	}
}

// TestBlockedGEMMOracleAllKernels drives the full blocked composition —
// packing, macro loops, write-back — under every available kernel across
// ragged edges (m, k, n off the mr/nr multiples), against the naive
// reference. This is what catches packing/tile-shape mismatches that the
// isolated kernel parity test cannot.
func TestBlockedGEMMOracleAllKernels(t *testing.T) {
	for _, k := range kernelTable {
		if !k.available {
			continue
		}
		t.Run(k.name, func(t *testing.T) {
			prev := SetGEMMKernelForTest(k.name)
			defer SetGEMMKernelForTest(prev)
			for _, s := range []struct{ m, k, n int }{
				{2, 4, k.nr},
				{k.mr - 1, 13, k.nr - 1},
				{k.mr + 1, 65, k.nr + 1},
				{3*k.mr + 2, blockKC + 7, 2*k.nr + 3},
				{blockMC + 5, 33, 4*k.nr - 1},
			} {
				checkGEMMOracle(t, s.m, s.k, s.n, 1, 0)
				checkGEMMOracle(t, s.m, s.k, s.n, 1, 1)
				checkGEMMOracle(t, s.m, s.k, s.n, 0.5, 1)
			}
		})
	}
}

// FuzzBlockedGEMM lets the fuzzer wander the shape/scale space; every input
// is checked against the naive reference.
func FuzzBlockedGEMM(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), float32(1), float32(0), uint32(7))
	f.Add(uint8(17), uint8(9), uint8(65), float32(1), float32(1), uint32(99))
	f.Add(uint8(64), uint8(65), uint8(63), float32(0.5), float32(-1), uint32(12345))
	f.Add(uint8(1), uint8(16), uint8(8), float32(2), float32(0.25), uint32(5))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, alpha, beta float32, seed uint32) {
		m := int(mRaw)%96 + 1
		k := int(kRaw)%96 + 1
		n := int(nRaw)%96 + 1
		if math.IsNaN(float64(alpha)) || math.IsInf(float64(alpha), 0) ||
			math.IsNaN(float64(beta)) || math.IsInf(float64(beta), 0) {
			return
		}
		// Keep scales sane so the tolerance stays meaningful.
		if math.Abs(float64(alpha)) > 4 || math.Abs(float64(beta)) > 4 {
			return
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		cInit := make([]float32, m*n)
		fillDeterministic(a, seed|1)
		fillDeterministic(b, seed+101)
		fillDeterministic(cInit, seed+211)

		want := append([]float32(nil), cInit...)
		gemmNaive(a, b, want, m, k, n, alpha, beta)
		got := append([]float32(nil), cInit...)
		gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, alpha, beta, Epilogue{}, nil, nil)
		if d := maxAbsDiff(got, want); d > oracleTol {
			t.Fatalf("fuzz %dx%dx%d alpha=%v beta=%v: max abs diff %g", m, k, n, alpha, beta, d)
		}
	})
}

func absAll(v []float32) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(math.Abs(float64(x)))
	}
	return out
}

// FuzzGEMMKernelsVsNaive holds every micro-kernel this CPU runs to the naive
// reference over ragged shapes — rows, depths and widths that are no
// multiple of any tile, past one depth block and one row block — through the
// blocked driver and through GEMM's own dispatch (for a single row that is
// gemvRow and its vector bodies), on operands that round.
func FuzzGEMMKernelsVsNaive(f *testing.F) {
	f.Add(uint16(1), uint16(784), uint16(37), float32(1), float32(0), uint32(3))
	f.Add(uint16(3), uint16(25), uint16(784), float32(1), float32(0), uint32(5))
	f.Add(uint16(129), uint16(257), uint16(17), float32(1), float32(1), uint32(7))
	f.Add(uint16(9), uint16(300), uint16(199), float32(-0.5), float32(2), uint32(11))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, alpha, beta float32, seed uint32) {
		m, k, n := int(mRaw)%160+1, int(kRaw)%300+1, int(nRaw)%200+1
		if !(math.Abs(float64(alpha)) <= 4 && math.Abs(float64(beta)) <= 4) {
			return // NaN, Inf, or a scale under which the tolerance means nothing
		}
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		cInit := make([]float32, m*n)
		fillMantissa(a, seed)
		fillMantissa(b, seed+101)
		fillMantissa(cInit, seed+211)
		want := append([]float32(nil), cInit...)
		GEMMNaive(a, b, want, m, k, n, alpha, beta)
		// Two summation orders of one element differ by at most 2·k·u times
		// the sum of its terms' magnitudes (u = 2⁻²⁴), fused or not: far
		// below a dropped, doubled or misplaced term, which is what a ragged
		// edge gets wrong.
		mag := make([]float32, m*n)
		for i, v := range cInit {
			mag[i] = float32(math.Abs(float64(v)))
		}
		GEMMNaive(absAll(a), absAll(b), mag, m, k, n, float32(math.Abs(float64(alpha))), float32(math.Abs(float64(beta))))
		within := func(got []float32) (int, bool) {
			for i := range want {
				if math.Abs(float64(got[i])-float64(want[i])) > 2*float64(k+2)/(1<<24)*float64(mag[i])+1e-30 {
					return i, false
				}
			}
			return 0, true
		}

		defer SetBlockedKernelForTest(SetBlockedKernelForTest(true))
		defer SetGEMMKernelForTest(GEMMKernelName())
		for _, kern := range GEMMKernels() {
			if !kern.Available {
				continue
			}
			SetGEMMKernelForTest(kern.Name)
			got := append([]float32(nil), cInit...)
			gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, alpha, beta, Epilogue{}, nil, nil)
			if i, ok := within(got); !ok {
				t.Fatalf("%s blocked %dx%dx%d alpha=%v beta=%v: c[%d] = %v, naive %v", kern.Name, m, k, n, alpha, beta, i, got[i], want[i])
			}
			copy(got, cInit)
			GEMM(a, b, got, m, k, n, alpha, beta)
			if i, ok := within(got); !ok {
				t.Fatalf("%s dispatch %dx%dx%d alpha=%v beta=%v: c[%d] = %v, naive %v", kern.Name, m, k, n, alpha, beta, i, got[i], want[i])
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Kernel benchmarks. The GFLOPS metric makes before/after comparisons
// machine-independent; BenchmarkGEMMNaive256 is the retained baseline the
// acceptance criterion (blocked ≥ 2× naive at 256³) is judged against.

func benchGEMM(b *testing.B, m, k, n int, f func(a, bb, c []float32)) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	fillDeterministic(a, 3)
	fillDeterministic(bb, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, bb, c)
	}
	b.ReportMetric(2*float64(m)*float64(k)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkGEMMNaive256(b *testing.B) {
	benchGEMM(b, 256, 256, 256, func(a, bb, c []float32) { gemmNaive(a, bb, c, 256, 256, 256, 1, 0) })
}

func BenchmarkGEMMBlocked256(b *testing.B) {
	if !blockedEnabled {
		b.Skip("no FMA micro-kernel on this CPU")
	}
	benchGEMM(b, 256, 256, 256, func(a, bb, c []float32) {
		gemmBlocked(a, 256, 1, bb, 256, 1, c, 256, 256, 256, 1, 0, Epilogue{}, nil, nil)
	})
}

// BenchmarkGEMMLeNetShapes covers the matrix shapes the models actually
// produce: conv2/conv3 im2col products at engine batch size 32 and the
// batched dense layers.
func BenchmarkGEMMLeNetShapes(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
	}{
		{"conv2-batch32", 48, 75, 3200},  // 48 out-ch, 3·5·5 patch, 32·10·10 cols
		{"conv3-batch32", 256, 1200, 32}, // 256 out-ch, 48·5·5 patch, 32·1·1 cols
		{"dense-784x128-batch32", 32, 784, 128},
		{"dense-fc1-batch32", 32, 256, 84},
	} {
		b.Run(s.name, func(b *testing.B) {
			benchGEMM(b, s.m, s.k, s.n, func(a, bb, c []float32) { GEMM(a, bb, c, s.m, s.k, s.n, 1, 0) })
		})
	}
}

func BenchmarkMatVec(b *testing.B) {
	for _, s := range []struct{ m, k int }{{84, 256}, {256, 1200}} {
		b.Run(fmt.Sprintf("%dx%d", s.m, s.k), func(b *testing.B) {
			a := New(s.m, s.k)
			x := New(s.k)
			fillDeterministic(a.Data, 7)
			fillDeterministic(x.Data, 9)
			y := make([]float32, s.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVecInto(y, a.Data, x.Data, s.m, s.k)
			}
		})
	}
}

func BenchmarkAddRowVector(b *testing.B) {
	t := New(32, 784)
	v := New(784)
	fillDeterministic(t.Data, 19)
	fillDeterministic(v.Data, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.AddRowVector(v)
	}
}

func BenchmarkSumRows(b *testing.B) {
	t := New(256, 784)
	fillDeterministic(t.Data, 27)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.SumRows()
	}
}
