package tensor

import (
	"fmt"
	"math"
	"testing"
)

// fillMantissa is fillDeterministic with all 24 mantissa bits in play:
// fillDeterministic's multiples of 1/1024 multiply exactly, so a fused and an
// unfused multiply-add of them agree, and a test of which one a loop uses
// needs operands that round.
func fillMantissa(data []float32, seed uint32) {
	s := seed | 1
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		data[i] = float32(s>>8)/(1<<23) - 1
	}
}

// gemvRow under a kernel with vector bodies against gemvRow under a generic
// kernel — the Go loops alone, kept as the reference. The bodies multiply
// and add unfused in the loops' association, so every finite, infinite and
// signed-zero result has the reference's bits; a NaN has to be a NaN, its
// payload being whichever operand the hardware forwards.
func TestGemvVectorMatchesGoLoop(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	odd := []float32{0, negZero, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.MaxFloat32, math.SmallestNonzeroFloat32}
	widths := []int{512, 784}
	for n := 1; n <= 40; n++ {
		widths = append(widths, n)
	}
	type variant struct {
		name        string
		coef        func(p int, v float32) float32
		special     bool
		alpha, beta float32
	}
	dense := func(_ int, v float32) float32 {
		if v == 0 {
			return 0.25
		}
		return v
	}
	variants := []variant{
		{"dense", dense, false, 1, 0},
		{"all-zero", func(int, float32) float32 { return 0 }, false, 1, 0},
		{"every-other-zero", func(p int, v float32) float32 { return float32(p%2) * dense(p, v) }, false, 1, 0},
		{"accumulate", dense, false, 1, 1},
		{"scaled", dense, false, 0.5, -1},
		{"scaled-sparse", func(p int, v float32) float32 { return float32((p+1)%3%2) * dense(p, v) }, false, 2, 0.25},
		{"alpha-zero", dense, false, 0, 1},
		{"special", dense, true, 1, 0},
		{"special-accumulate", dense, true, 1, 1},
	}
	run := func(kernel string, v variant, k, n int) []float32 {
		defer SetGEMMKernelForTest(SetGEMMKernelForTest(kernel))
		a := make([]float32, k)
		b := make([]float32, k*n)
		c := make([]float32, n)
		fillMantissa(a, uint32(k*977+n))
		fillMantissa(b, uint32(n*983+k))
		fillMantissa(c, uint32(k+n))
		for p := range a {
			a[p] = v.coef(p, a[p])
		}
		if v.special {
			for i := 0; i < len(b); i += 5 {
				b[i] = odd[(i/5)%len(odd)]
			}
			for p := 2; p < k; p += 7 {
				a[p] = odd[(p/7)%len(odd)]
			}
			for j := 1; j < n; j += 9 {
				c[j] = odd[(j/9)%len(odd)]
			}
		}
		gemvRow(a, b, c, k, n, v.alpha, v.beta)
		return c
	}
	for _, kern := range GEMMKernels() {
		if !kern.Available || kern.Name == "generic-8x8" {
			continue
		}
		t.Run(kern.Name, func(t *testing.T) {
			for _, v := range variants {
				for _, n := range widths {
					for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 37} {
						got, want := run(kern.Name, v, k, n), run("generic-8x8", v, k, n)
						for j := range want {
							g, w := got[j], want[j]
							if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
								t.Fatalf("%s k=%d n=%d: c[%d] = %v (%#x), Go loop %v (%#x)", v.name, k, n, j, g, math.Float32bits(g), w, math.Float32bits(w))
							}
						}
					}
				}
			}
		})
	}
}

// BenchmarkGemvRow times the single-row dense shapes of batch 1: the
// classifier head's 784×128 and the autoencoder's first layer, 784×512. The
// coefficient vectors rotate so the zero-skipping branch is not a learned
// pattern.
func BenchmarkGemvRow(b *testing.B) {
	for _, s := range []struct{ k, n int }{{784, 128}, {784, 512}} {
		b.Run(fmt.Sprintf("%dx%d", s.k, s.n), func(b *testing.B) {
			as := make([][]float32, 4)
			for i := range as {
				as[i] = make([]float32, s.k)
				fillDeterministic(as[i], uint32(13+i))
			}
			bb := make([]float32, s.k*s.n)
			c := make([]float32, s.n)
			fillDeterministic(bb, 17)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemvRow(as[i%len(as)], bb, c, s.k, s.n, 1, 0)
			}
			b.ReportMetric(2*float64(s.k)*float64(s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
