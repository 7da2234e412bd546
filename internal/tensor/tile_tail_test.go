package tensor

import (
	"fmt"
	"math"
	"testing"
)

// saltSpecials overwrites about one element in three of data with the values
// a vector routine and a Go loop are most likely to treat differently:
// zeros of both signs, infinities, the extremes, denormals, and NaNs of both
// signs, quiet and signalling, each with a payload of its own — so that
// where two NaNs meet in an addition, which operand's payload survives is
// part of what is compared.
func saltSpecials(data []float32, seed uint32) {
	specials := []uint32{
		0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x7F7FFFFF, 0xFF7FFFFF,
		0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF,
		0x7FC00001, 0xFFC12345, 0x7F800002, 0xFFA54321, 0x7FFFFFFF,
	}
	s := seed*2654435761 + 0x9E3779B9 | 1 // nearby seeds, unrelated streams
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		if s>>4%3 == 0 {
			data[i] = math.Float32frombits(specials[int(s>>12)%len(specials)])
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d is %#08x, the Go loops give %#08x", what, i, g, w)
		}
	}
}

// TestTileTailMatchesGo holds tileTail, under every kernel that has one, to
// writeTile + epilogueTile on one full tile inside a wider C: every stage
// combination (beta 0/1 × no, column or row bias × no activation or relu),
// operands salted with specials, the whole of C compared bit for bit — the
// tile for the arithmetic, the rest for stores that strayed. It also holds
// the flag derivation to the cases it must refuse.
func TestTileTailMatchesGo(t *testing.T) {
	for _, k := range vecKernels() {
		t.Run(k.name, func(t *testing.T) {
			const i0, j0 = 3, 5
			ldc := j0 + k.nr + 7
			rows := i0 + k.mr + 2
			rb := make([]float32, rows)
			cb := make([]float32, ldc)
			cInit := make([]float32, rows*ldc)
			var acc [maxMR * maxNR]float32
			for round := uint32(0); round < 200; round++ {
				fillMantissa(rb, 11+round)
				fillMantissa(cb, 13+round)
				fillMantissa(cInit, 17+round)
				fillMantissa(acc[:], 19+round)
				if round > 0 { // round 0: ordinary values only
					saltSpecials(rb, 23+round)
					saltSpecials(cb, 29+round)
					saltSpecials(cInit, 31+round)
					saltSpecials(acc[:], 37+round)
				}
				for _, beta := range []float32{0, 1} {
					for _, ep := range []Epilogue{
						{}, {Act: EpActReLU},
						{ColBias: cb}, {ColBias: cb, Act: EpActReLU},
						{RowBias: rb}, {RowBias: rb, Act: EpActReLU},
					} {
						pn := gemmPanel{kern: k, alpha: 1, beta: beta, ep: ep, applyEp: !ep.isIdentity()}
						flags := pn.tailFlags()
						if flags < 0 {
							t.Fatalf("beta %v epilogue %+v: no tail flags", beta, ep)
						}
						want := append([]float32(nil), cInit...)
						writeTile(want, ldc, i0, j0, k.mr, k.nr, k.nr, &acc, 1, beta)
						if pn.applyEp {
							epilogueTile(want, ldc, i0, j0, k.mr, k.nr, &ep)
						}
						got := append([]float32(nil), cInit...)
						var bias []float32
						switch {
						case ep.ColBias != nil:
							bias = cb[j0:]
						case ep.RowBias != nil:
							bias = rb[i0:]
						}
						tileTail(k.vec, got[i0*ldc+j0:], ldc, &acc, bias, flags)
						sameBits(t, fmt.Sprintf("round %d beta %v flags %04b", round, beta, flags), got, want)
					}
				}
			}

			for _, pn := range []gemmPanel{
				{kern: k, alpha: 2, beta: 0},
				{kern: k, alpha: 1, beta: 0.5},
				{kern: k, alpha: 1, beta: float32(math.NaN())},
				{kern: k, alpha: 1, beta: 0, ep: Epilogue{RowBias: rb, ColBias: cb}, applyEp: true},
				{kern: kernelDesc{mr: k.mr, nr: k.nr, fn: k.fn}, alpha: 1, beta: 0},
			} {
				if flags := pn.tailFlags(); flags >= 0 {
					t.Errorf("alpha %v beta %v epilogue %+v vec %d: tail flags %04b, want none", pn.alpha, pn.beta, pn.ep, pn.kern.vec, flags)
				}
			}
			// Biases that are not applied on this depth block are not flagged.
			pn := gemmPanel{kern: k, alpha: 1, beta: 1, ep: Epilogue{ColBias: cb, Act: EpActReLU}}
			if flags := pn.tailFlags(); flags != tailAccumulate {
				t.Errorf("depth block before the last: tail flags %04b, want accumulate alone", flags)
			}
		})
	}
}

// TestPackAVectorMatchesGo holds packA with the vector transpose to packA
// without it (the Go scatter alone) on row-major blocks whose rows and
// depths are and are not multiples of eight, out of a wider A, bit for bit
// on salted values: the body only copies.
func TestPackAVectorMatchesGo(t *testing.T) {
	for _, k := range vecKernels() {
		for _, s := range []struct{ mc, kc int }{{8, 8}, {8, 7}, {32, 256}, {29, 131}, {5, 40}, {128, 16}, {17, 9}} {
			const ic, pc = 3, 5
			lda := pc + s.kc + 6
			a := make([]float32, (ic+s.mc+1)*lda)
			fillMantissa(a, uint32(s.mc*1000+s.kc))
			saltSpecials(a, uint32(s.mc+s.kc))
			want := make([]float32, roundUp(s.mc, k.mr)*s.kc)
			got := make([]float32, len(want))
			fillMantissa(want, 7) // stale panel contents both must overwrite
			copy(got, want)
			packA(vecNone, a, lda, 1, ic, pc, s.mc, s.kc, k.mr, want)
			packA(k.vec, a, lda, 1, ic, pc, s.mc, s.kc, k.mr, got)
			sameBits(t, fmt.Sprintf("%s packA %d×%d", k.name, s.mc, s.kc), got, want)
		}
	}
}

// FuzzGEMMEpilogueTail compares whole blocked products — full tiles through
// tileTail, ragged edge tiles through the Go loops beside them, a sigmoid as
// the row sweep — with the same products run with the all-Go write-back (the
// same micro-kernel, its vec taken away), bit for bit: ragged m/k/n past one
// depth and one row block, beta 0 and 1, every epilogue, salted operands.
func FuzzGEMMEpilogueTail(f *testing.F) {
	f.Add(uint16(31), uint16(783), uint16(127), uint8(4), true, uint32(3))
	f.Add(uint16(7), uint16(24), uint16(783), uint8(5), false, uint32(5))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, variant uint8, accumulate bool, seed uint32) {
		m, k, n := int(mRaw)%160+1, int(kRaw)%800+1, int(nRaw)%200+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		cInit := make([]float32, m*n)
		rb := make([]float32, m)
		cb := make([]float32, n)
		fillMantissa(a, seed)
		fillMantissa(b, seed+101)
		fillMantissa(cInit, seed+211)
		fillMantissa(rb, seed+307)
		fillMantissa(cb, seed+401)
		if seed&1 == 1 {
			saltSpecials(cInit, seed+503)
			saltSpecials(rb, seed+601)
			saltSpecials(cb, seed+701)
			saltSpecials(a[:min(len(a), 64)], seed+809)
		}
		eps := []Epilogue{
			{}, {Act: EpActReLU}, {Act: EpActSigmoid},
			{ColBias: cb}, {ColBias: cb, Act: EpActReLU}, {ColBias: cb, Act: EpActSigmoid},
			{RowBias: rb}, {RowBias: rb, Act: EpActReLU}, {RowBias: rb, Act: EpActSigmoid},
			{RowBias: rb, ColBias: cb, Act: EpActReLU},
		}
		ep := eps[int(variant)%len(eps)]
		beta := float32(0)
		if accumulate {
			beta = 1
		}
		saved := activeKernel
		defer func() { activeKernel = saved }()
		for _, kern := range vecKernels() {
			activeKernel = kern
			got := append([]float32(nil), cInit...)
			gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, 1, beta, ep, nil, nil)
			activeKernel.vec = vecNone
			want := append([]float32(nil), cInit...)
			gemmBlocked(a, k, 1, b, n, 1, want, m, k, n, 1, beta, ep, nil, nil)
			sameBits(t, fmt.Sprintf("%s %dx%dx%d beta %v epilogue %d", kern.name, m, k, n, beta, int(variant)%len(eps)), got, want)
		}
	})
}

// BenchmarkTileTail times one full tile's write-back — the accumulator into
// C with a column bias and relu, the AE's hidden layers' final depth block,
// and into C alone, the depth blocks before it — through tileTail under each
// kernel that has one and through writeTile + epilogueTile, over the tiles of
// a 32×512 C so the tile is in cache but not the same lines every call.
func BenchmarkTileTail(b *testing.B) {
	const m, n = 32, 512
	c := make([]float32, m*n)
	cb := make([]float32, n)
	var acc [maxMR * maxNR]float32
	fillMantissa(c, 3)
	fillMantissa(cb, 5)
	fillMantissa(acc[:], 7)
	for _, k := range vecKernels() {
		for _, v := range []struct {
			name string
			beta float32
			ep   Epilogue
		}{
			{"beta0+bias+relu", 0, Epilogue{ColBias: cb, Act: EpActReLU}},
			{"beta1+bias+relu", 1, Epilogue{ColBias: cb, Act: EpActReLU}},
			{"beta1", 1, Epilogue{}},
		} {
			pn := gemmPanel{kern: k, alpha: 1, beta: v.beta, ep: v.ep, applyEp: !v.ep.isIdentity()}
			flags := pn.tailFlags()
			tilesPerRow := n / k.nr
			each := func(b *testing.B, f func(i0, j0 int)) {
				for i := 0; i < b.N; i++ {
					f(i/tilesPerRow%(m/k.mr)*k.mr, i%tilesPerRow*k.nr)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tile")
			}
			b.Run(k.name+"/"+v.name+"/vector", func(b *testing.B) {
				each(b, func(i0, j0 int) {
					tileTail(k.vec, c[i0*n+j0:], n, &acc, cb[j0:], flags)
				})
			})
			b.Run(k.name+"/"+v.name+"/go", func(b *testing.B) {
				each(b, func(i0, j0 int) {
					writeTile(c, n, i0, j0, k.mr, k.nr, k.nr, &acc, 1, v.beta)
					if pn.applyEp {
						epilogueTile(c, n, i0, j0, k.mr, k.nr, &v.ep)
					}
				})
			})
		}
	}
}
