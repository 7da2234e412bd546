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
// calls of its single body, one per sliver, bit for bit: full-mantissa
// operands salted with ±0, ±Inf, NaNs with payloads and subnormals, over
// depths that are and are not multiples of anything, into an accumulator
// holding stale values the body must overwrite.
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
			var want, got [2][maxMR * maxNR]float32
			fillMantissa(want[0][:], 3)
			fillMantissa(want[1][:], 5)
			got = want
			k.fn(kc, ap, bp[:kc*k.nr], &want[0])
			k.fn(kc, ap, bp[kc*k.nr:], &want[1])
			k.pair(kc, ap, bp, &got)
			for h := range got {
				sameBits(t, fmt.Sprintf("%s kc %d round %d tile %d", k.name, kc, round, h), got[h][:k.mr*k.nr], want[h][:k.mr*k.nr])
			}
		}
	}
}

// checkPairedProduct runs one blocked product under kern and under kern with
// its pair body taken away, and holds the two C's to the same bits. It
// returns how many pair calls the first product made.
func checkPairedProduct(t *testing.T, kern kernelDesc, m, k, n int, beta float32, variant int, seed uint32) int {
	t.Helper()
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
		saltSpecials(b[:min(len(b), 64)], seed+907)
	}
	// No epilogue, the hidden layers' column bias + relu, the convolutions'
	// row bias, and the output layer's sigmoid sweep.
	eps := []Epilogue{{}, {ColBias: cb, Act: EpActReLU}, {RowBias: rb}, {Act: EpActSigmoid}}
	ep := eps[variant%len(eps)]

	saved := activeKernel
	defer func() { activeKernel = saved }()
	calls := 0
	activeKernel = kern
	activeKernel.pair = func(kc int, ap, bp []float32, acc *[2][maxMR * maxNR]float32) {
		calls++
		kern.pair(kc, ap, bp, acc)
	}
	got := append([]float32(nil), cInit...)
	gemmBlocked(a, k, 1, b, n, 1, got, m, k, n, 1, beta, ep, nil, nil)
	activeKernel.pair = nil
	want := append([]float32(nil), cInit...)
	gemmBlocked(a, k, 1, b, n, 1, want, m, k, n, 1, beta, ep, nil, nil)
	sameBits(t, fmt.Sprintf("%s %dx%dx%d beta %v epilogue %d", kern.name, m, k, n, beta, variant%len(eps)), got, want)
	return calls
}

// TestPairedTilesMatchUnpaired holds whole blocked products with the pair
// body to the same products without it, bit for bit: widths one sliver
// short of, at and past a pair — ragged last slivers and the odd sliver of
// the autoencoder's 784-wide output among them — rows around one tile and
// one row block, depths around one depth block, beta 0 and 1, every
// write-back form. It also checks that the paired products did pair.
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

// FuzzPairedTiles is TestPairedTilesMatchUnpaired over fuzzed shapes, betas,
// epilogues and operands.
func FuzzPairedTiles(f *testing.F) {
	f.Add(uint16(32), uint16(784), uint16(784), uint8(3), false, uint32(1))
	f.Add(uint16(9), uint16(257), uint16(49), uint8(1), true, uint32(2))
	f.Add(uint16(129), uint16(255), uint16(33), uint8(2), true, uint32(3))
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, variant uint8, accumulate bool, seed uint32) {
		m, k, n := int(mRaw)%160+1, int(kRaw)%800+1, int(nRaw)%800+1
		beta := float32(0)
		if accumulate {
			beta = 1
		}
		checkPairedProduct(t, pairKernelOrSkip(t), m, k, n, beta, int(variant), seed)
	})
}
