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

// saltZerosAndSubnormals overwrites about a third of data with zeros of
// both signs and a sixth with subnormals of either sign: the coefficients
// gemvRow skips, and products that round to a zero of the product's sign.
func saltZerosAndSubnormals(data []float32, seed uint32) {
	s := seed*2654435761 + 0x9E3779B9 | 1
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		switch r := s >> 8 % 6; {
		case r == 0:
			data[i] = 0
		case r == 1:
			data[i] = float32(math.Copysign(0, -1))
		case r == 2:
			data[i] = math.Float32frombits(s>>9 | s<<31) // |a| < 2⁻¹²⁶
		}
	}
}

// TestGemvMatchesBlockedRow holds gemvRow's row to the same row of a
// two-row blocked product, bit for bit, under every kernel the host runs
// (a generic one with the blocked path forced on, so that both sides are
// its Go loops): depths on both sides of a depth block, widths below, at
// and past each vector width, B finite with full mantissas. A's row
// carries ±0 and subnormals, so the zero skip runs; in the "tiny" rows
// every coefficient is ±0 or one of the smallest subnormals, every product
// rounds to a zero and the sums are zeros whose sign only the kernel's
// order gives — the skipped sum's −0 that gemvRow sums again.
func TestGemvMatchesBlockedRow(t *testing.T) {
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(true))
	negZero := float32(math.Copysign(0, -1))
	tiny := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 2 * math.SmallestNonzeroFloat32}
	for _, kern := range GEMMKernels() {
		if !kern.Available {
			continue
		}
		t.Run(kern.Name, func(t *testing.T) {
			defer SetGEMMKernelForTest(SetGEMMKernelForTest(kern.Name))
			for _, k := range []int{1, 255, 256, 257, 784} {
				for _, n := range []int{1, 10, 15, 16, 17, 130, 512, 784} {
					for _, variant := range []string{"salted", "tiny"} {
						seed := uint32(k*1000 + n)
						a := make([]float32, 2*k)
						b := make([]float32, k*n)
						fillMantissa(a, seed)
						fillMantissa(b, seed+1)
						if variant == "salted" {
							saltZerosAndSubnormals(a[:k], seed+2)
						} else {
							for p := range k {
								a[p] = tiny[(p*7+int(seed))%len(tiny)]
							}
						}
						want := make([]float32, 2*n)
						gemmBlocked(a, k, 1, b, n, 1, want, 2, k, n, 1, 0, Epilogue{}, nil, nil)
						got := make([]float32, n)
						fillMantissa(got, seed+3) // stored, not read
						gemvRow(a[:k], b, got, k, n)
						if j, ok := bitsEqual(got, want[:n]); !ok {
							t.Fatalf("%s k=%d n=%d: c[%d] = %#08x, the blocked row %#08x", variant, k, n, j,
								math.Float32bits(got[j]), math.Float32bits(want[j]))
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
				gemvRow(as[i%len(as)], bb, c, s.k, s.n)
			}
			b.ReportMetric(2*float64(s.k)*float64(s.n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}
