package tensor

import (
	"fmt"
	"math"
	"testing"
)

// saltZerosAndNaNs overwrites about a third of data with zeros of both signs
// and a tenth with NaNs of distinct payloads, quiet and signalling: the
// coefficients the Go loop skips, and the ones it must not.
func saltZerosAndNaNs(data []float32, seed uint32) {
	nans := []uint32{0x7FC00001, 0xFFC0A5A5, 0x7F800003, 0xFF812345, 0x7FFFFFFF}
	s := seed*2654435761 + 0x9E3779B9 | 1
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		switch r := s >> 8 % 30; {
		case r < 5:
			data[i] = 0
		case r < 10:
			data[i] = float32(math.Copysign(0, -1))
		case r < 13:
			data[i] = math.Float32frombits(nans[int(s>>16)%len(nans)])
		}
	}
}

// TestNarrowGEMMMatchesGoLoop holds gemmNaive under every kernel with a
// narrow-product body to the same call with that kernel's vec taken away —
// gemmNaiveRange's Go loop — bit for bit: every n up to the vector width,
// depths 1 to 300, row counts around the body's four-row groups, beta 0 and
// 1, A rich in ±0 and NaN, B and C salted with NaN payloads, infinities and
// denormals. Products of fillMantissa's values round, so a fused or reordered
// multiply-add shows; two NaNs meeting in a product or a sum show which
// operand's payload survives.
func TestNarrowGEMMMatchesGoLoop(t *testing.T) {
	saved := activeKernel
	defer func() { activeKernel = saved }()
	var depths []int
	for k := 1; k <= 300; k += 13 {
		depths = append(depths, k)
	}
	depths = append(depths, 108, 300)
	for _, kern := range vecKernels() {
		for n := 1; n <= kern.vec.width(); n++ {
			for i, k := range depths {
				m := 1 + (n+i)%9
				seed := uint32(n*1000 + k)
				a := make([]float32, m*k)
				b := make([]float32, k*n)
				cInit := make([]float32, m*n)
				fillMantissa(a, seed)
				fillMantissa(b, seed+1)
				fillMantissa(cInit, seed+2)
				saltZerosAndNaNs(a, seed+3)
				saltSpecials(b, seed+4)
				saltSpecials(cInit, seed+5)
				for _, beta := range []float32{0, 1} {
					activeKernel = kern
					got := append([]float32(nil), cInit...)
					gemmNaive(a, b, got, m, k, n, 1, beta)
					activeKernel.vec = vecNone
					want := append([]float32(nil), cInit...)
					gemmNaive(a, b, want, m, k, n, 1, beta)
					sameBits(t, fmt.Sprintf("%s %dx%dx%d beta %v", kern.name, m, k, n, beta), got, want)
				}
			}
		}
	}
}

// BenchmarkNarrowGEMM times the classifier head's product at the engine's
// batch — 32 rows of 108 post-relu activations, about half of them zero,
// times the 108×10 weights — through the narrow body and through the Go
// loop. The activations rotate so the Go loop's zero-skip branch is not a
// learned pattern.
func BenchmarkNarrowGEMM(b *testing.B) {
	const m, k, n = 32, 108, 10
	as := make([][]float32, 4)
	for i := range as {
		as[i] = make([]float32, m*k)
		fillMantissa(as[i], uint32(5+i))
		for j, v := range as[i] {
			as[i][j] = max(v, 0)
		}
	}
	w := make([]float32, k*n)
	fillMantissa(w, 3)
	c := make([]float32, m*n)
	run := func(b *testing.B, isa vecISA) {
		saved := activeKernel.vec
		defer func() { activeKernel.vec = saved }()
		activeKernel.vec = isa
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gemmNaive(as[i%len(as)], w, c, m, k, n, 1, 0)
		}
		b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
	}
	name := fmt.Sprintf("%dx%dx%d", m, k, n)
	b.Run(name+"/vector", func(b *testing.B) {
		if n > activeKernel.vec.width() {
			b.Skip("no narrow-product body for n = 10 under " + GEMMKernelName())
		}
		run(b, activeKernel.vec)
	})
	b.Run(name+"/go", func(b *testing.B) { run(b, vecNone) })
}
