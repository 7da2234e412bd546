//go:build amd64

package generalize

import "cbnet/internal/dataset"

// Bindings for the vector passes of hardness_amd64.s.

//go:noescape
func bucketsAVX512(img *float32, lit *uint16) (n, nan int)

//go:noescape
func bucketsAVX2(img *float32, bucket *uint16) (nan int)

//go:noescape
func lapAVX512(img *float32) (lap float64, inked int)

//go:noescape
func lapAVX2(img *float32, pack *uint64) (lap float64, inked int)

//go:noescape
func gatherAVX512(img *float32, b50, top int, keys50, keys95 *uint32) (n50, n95 int, bg float64)

//go:noescape
func gatherAVX2(img *float32, b50, top int, keys50, keys95 *uint32, pack *uint64) (n50, n95 int, bg float64)

// slack is the most a vector store writes past a pass's last term.
const slack = 16

// leftPack[m] holds, a byte each, the indices of the set bits of m in
// ascending order: the VPERMD indices that move the lanes an eight-lane
// VMOVMSKPS mask m selects to the front of a vector.
var leftPack = func() (t [256]uint64) {
	for m := range t {
		n := 0
		for i := range 8 {
			if m>>i&1 != 0 {
				t[m] |= uint64(i) << (8 * n)
				n++
			}
		}
	}
	return t
}()

// vectorStats is pixelStats's vector body for w lanes (16: AVX-512, 8:
// AVX2): goStats's passes, lane for lane, with the two float64 sums run in
// the passes over the terms they gather.
func vectorStats(w int, img *[dataset.Pixels]float32) (sharp, p50, p95, bg float64) {
	px := &img[0]
	// The buckets rankBuckets counts one by one: the AVX-512 pass leaves out
	// bucket 0.
	var lit [dataset.Pixels + slack]uint16
	n, nan := dataset.Pixels, 0
	if w == 16 {
		n, nan = bucketsAVX512(px, &lit[0])
	} else {
		nan = bucketsAVX2(px, &lit[0])
	}
	if nan != 0 {
		return nans()
	}

	var lap float64
	var lapN int
	if w == 16 {
		lap, lapN = lapAVX512(px)
	} else {
		lap, lapN = lapAVX2(px, &leftPack[0])
	}

	// keys holds b50's keys from the front and top's after a gap of slack,
	// past the last store b50's can make.
	r := rankBuckets(lit[:n], dataset.Pixels-n)
	var keys [dataset.Pixels + 2*slack]uint32
	in95 := keys[r.n50+slack:]
	var n50, n95 int
	if w == 16 {
		n50, n95, bg = gatherAVX512(px, r.b50, r.top, &keys[0], &in95[0])
	} else {
		n50, n95, bg = gatherAVX2(px, r.b50, r.top, &keys[0], &in95[0], &leftPack[0])
	}
	p50, p95, bg = r.orderStats(keys[:n50], in95[:n95], bg)
	return mean(lap, lapN), p50, p95, bg
}
