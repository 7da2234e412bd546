package tensor

import (
	"fmt"
	"testing"
)

// pairKernelOrSkip returns the active kernel, skipping the test where it has
// no pair body.
func pairKernelOrSkip(t testing.TB) kernelDesc {
	if activeKernel.pair == nil {
		t.Skipf("active kernel %s has no pair body", activeKernel.name)
	}
	return activeKernel
}

// TestPairKernelMatchesSingle holds the active kernel's pair body to two
// calls of its single body, one per sliver, bit for bit, and its 4-row body
// to the pair body's first four rows of each tile, leaving the other four as
// it found them: full-mantissa operands salted with ±0, ±Inf, NaNs with
// payloads and subnormals, over depths that are and are not multiples of
// anything, into an accumulator holding stale values the bodies must
// overwrite.
func TestPairKernelMatchesSingle(t *testing.T) {
	k := pairKernelOrSkip(t)
	for _, kc := range []int{1, 2, 3, 255, 256} {
		for round := uint32(0); round < 8; round++ {
			ap := make([]float32, kc*k.mr)
			bp := make([]float32, 2*kc*k.nr)
			seed := uint32(kc)*1000 + round
			fillMantissa(ap, seed)
			fillMantissa(bp, seed+7)
			if round > 0 { // round 0: ordinary values only
				saltSpecials(ap, seed+11)
				saltSpecials(bp, seed+13)
			}
			var stale, want, got [2][maxMR * maxNR]float32
			fillMantissa(stale[0][:], 3)
			fillMantissa(stale[1][:], 5)
			want, got = stale, stale
			k.fn(kc, ap, bp[:kc*k.nr], &want[0])
			k.fn(kc, ap, bp[kc*k.nr:], &want[1])
			k.pair(kc, ap, bp, &got)
			tile := k.mr * k.nr
			for h := range got {
				sameBits(t, fmt.Sprintf("%s kc %d round %d tile %d", k.name, kc, round, h), got[h][:tile], want[h][:tile])
			}
			if k.pair4 == nil {
				continue
			}
			got = stale
			k.pair4(kc, ap, bp, &got)
			for h := range got {
				what := fmt.Sprintf("%s 4-row body kc %d round %d tile %d", k.name, kc, round, h)
				sameBits(t, what+" rows 0–3", got[h][:4*k.nr], want[h][:4*k.nr])
				sameBits(t, what+" rows 4–7 (untouched)", got[h][4*k.nr:tile], stale[h][4*k.nr:tile])
			}
		}
	}
}

// pairOperands returns the operands of one m×k×n product — A, B, the C it
// starts from and the two biases — from seed, odd seeds salted with
// specials.
func pairOperands(m, k, n int, seed uint32) (a, b, cInit, rb, cb []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	cInit = make([]float32, m*n)
	rb = make([]float32, m)
	cb = make([]float32, n)
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
		saltSpecials(b[:min(len(b), 64)], seed+907)
	}
	return a, b, cInit, rb, cb
}

// sameBlockedProduct runs C = A·B + beta·C with epilogue ep through
// gemmBlocked under kern, then under kern as ref changes it, and holds the
// two C's to the same bits.
func sameBlockedProduct(t *testing.T, what string, kern kernelDesc, ref func(*kernelDesc), a, b, cInit []float32, m, k, n int, beta float32, ep Epilogue) {
	t.Helper()
	saved := activeKernel
	defer func() { activeKernel = saved }()
	activeKernel = kern
	got := append([]float32(nil), cInit...)
	gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, 1, beta, ep, nil, nil)
	ref(&activeKernel)
	want := append([]float32(nil), cInit...)
	gemmBlocked(a, k, 1, b, n, 1, want, m, k, n, 1, beta, ep, nil, nil)
	sameBits(t, what, got, want)
}

// counted returns body wrapped to count its calls in *calls, or nil for a
// nil body.
func counted(body pairKernelFunc, calls *int) pairKernelFunc {
	if body == nil {
		return nil
	}
	return func(kc int, ap, bp []float32, acc *[2][maxMR * maxNR]float32) {
		*calls++
		body(kc, ap, bp, acc)
	}
}

// checkPairedProduct runs one blocked product under kern and under kern with
// its pair bodies taken away, and holds the two C's to the same bits. It
// returns how many calls of the pair body or its 4-row body the first
// product made.
func checkPairedProduct(t *testing.T, kern kernelDesc, m, k, n int, beta float32, variant int, seed uint32) int {
	t.Helper()
	a, b, cInit, rb, cb := pairOperands(m, k, n, seed)
	// No epilogue, the hidden layers' column bias + relu, the convolutions'
	// row bias, and the output layer's sigmoid sweep.
	eps := []Epilogue{{}, {ColBias: cb, Act: EpActReLU}, {RowBias: rb}, {Act: EpActSigmoid}}
	calls := 0
	kern.pair, kern.pair4 = counted(kern.pair, &calls), counted(kern.pair4, &calls)
	sameBlockedProduct(t, fmt.Sprintf("%s %dx%dx%d beta %v epilogue %d", kern.name, m, k, n, beta, variant%len(eps)),
		kern, func(k *kernelDesc) { k.pair, k.pair4 = nil, nil }, a, b, cInit, m, k, n, beta, eps[variant%len(eps)])
	return calls
}

// checkShortSlivers runs one blocked product under kern and under kern with
// its 4-row pair body taken away — every short sliver through the full-height
// pair body — and holds the two C's to the same bits. It returns how many
// calls of the 4-row body the first product made.
func checkShortSlivers(t *testing.T, kern kernelDesc, m, k, n int, beta float32, variant int, seed uint32) int {
	t.Helper()
	a, b, cInit, rb, cb := pairOperands(m, k, n, seed)
	eps := tailEpilogues(rb, cb)
	calls := 0
	kern.pair4 = counted(kern.pair4, &calls)
	sameBlockedProduct(t, fmt.Sprintf("%s %dx%dx%d beta %v epilogue %d", kern.name, m, k, n, beta, variant%len(eps)),
		kern, func(k *kernelDesc) { k.pair4 = nil }, a, b, cInit, m, k, n, beta, eps[variant%len(eps)])
	return calls
}

// TestPairedTilesMatchUnpaired holds whole blocked products with the pair
// bodies to the same products without them, bit for bit: widths one sliver
// short of, at and past a pair — ragged last slivers and the odd sliver of
// the autoencoder's 784-wide output among them — rows around one tile and
// one row block, depths around one depth block, beta 0 and 1, every
// write-back form. It also checks that the paired products did pair, through
// the pair body or its 4-row body.
func TestPairedTilesMatchUnpaired(t *testing.T) {
	ks := []int{4, 255, 256, 257, 784}
	if testing.Short() || raceEnabled {
		ks = []int{4, 257}
	}
	kern := pairKernelOrSkip(t)
	for _, n := range []int{16, 17, 31, 32, 33, 47, 48, 49, 784} {
		for _, m := range []int{2, 7, 8, 9, 15, 32, 129} {
			for _, k := range ks {
				for i, beta := range []float32{0, 1} {
					for variant := range 4 {
						seed := uint32(n*7919+m*104729+k*31+variant*2+i) | uint32(variant&1)
						calls := checkPairedProduct(t, kern, m, k, n, beta, variant, seed)
						if wantPairs := n > kern.nr; (calls > 0) != wantPairs {
							t.Fatalf("%s %dx%dx%d: %d pair calls", kern.name, m, k, n, calls)
						}
					}
				}
			}
		}
	}
}

// TestShortSliversMatchFullHeight holds whole blocked products whose last
// row sliver is short to the same products with the 4-row pair body taken
// away, bit for bit: every row count of a last sliver, at one, two and three
// slivers and past one row block, widths one sliver, a pair and the
// autoencoder's 784, depths inside and past one depth block, beta 0 and 1,
// every epilogue. It also checks that the 4-row body ran exactly where a
// last sliver holds one to four rows and the product is wider than one
// sliver.
func TestShortSliversMatchFullHeight(t *testing.T) {
	kern := pairKernelOrSkip(t)
	if kern.pair4 == nil {
		t.Skipf("active kernel %s has no 4-row pair body", kern.name)
	}
	ks := []int{5, 257}
	if testing.Short() || raceEnabled {
		ks = []int{5}
	}
	nVariants := len(tailEpilogues(nil, nil))
	for _, m := range []int{2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 17, 18, 19, 20, 129} {
		for _, n := range []int{16, 33, 784} {
			for _, k := range ks {
				for i, beta := range []float32{0, 1} {
					for variant := range nVariants {
						seed := uint32(m*7919+n*104729+k*31+variant*2+i) | uint32(variant&1)
						calls := checkShortSlivers(t, kern, m, k, n, beta, variant, seed)
						if want := m%8 >= 1 && m%8 <= 4 && n > kern.nr; (calls > 0) != want {
							t.Fatalf("%s %dx%dx%d: %d calls of the 4-row body", kern.name, m, k, n, calls)
						}
					}
				}
			}
		}
	}
}

// FuzzPairedTiles is TestPairedTilesMatchUnpaired and
// TestShortSliversMatchFullHeight over fuzzed shapes, betas, epilogues and
// operands; the seeds include short last slivers of one to four rows.
func FuzzPairedTiles(f *testing.F) {
	f.Add(uint16(32), uint16(784), uint16(784), uint8(3), false, uint32(1))
	f.Add(uint16(9), uint16(257), uint16(49), uint8(1), true, uint32(2))
	f.Add(uint16(129), uint16(255), uint16(33), uint8(2), true, uint32(3))
	f.Add(uint16(3), uint16(784), uint16(512), uint8(4), false, uint32(4))
	f.Add(uint16(12), uint16(512), uint16(256), uint8(5), true, uint32(5))
	f.Add(uint16(19), uint16(128), uint16(784), uint8(8), false, uint32(6))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, variant uint8, accumulate bool, seed uint32) {
		m, k, n := int(mRaw)%160+1, int(kRaw)%800+1, int(nRaw)%800+1
		beta := float32(0)
		if accumulate {
			beta = 1
		}
		kern := pairKernelOrSkip(t)
		checkPairedProduct(t, kern, m, k, n, beta, int(variant), seed)
		checkShortSlivers(t, kern, m, k, n, beta, int(variant), seed)
	})
}
