// Package generalize implements the extensions sketched in the paper's
// conclusion (§V): eliminating the dependency on BranchyNet for easy/hard
// classification via an image-statistics hardness heuristic, and removing
// the decoder block by classifying directly in the converting autoencoder's
// latent space.
package generalize

import (
	"fmt"
	"math"

	"cbnet/internal/dataset"
	"cbnet/internal/tensor"
)

// HardnessScore rates how hard a 28×28 image looks from pixel statistics
// alone — no trained network required. Higher means harder. The score
// combines the degradations the hard pipeline (and real-world hard inputs)
// exhibit: blur (low Laplacian energy), heavy noise (a bright background:
// the mean of the dimmest half of the pixels), and washed-out contrast (the
// spread between the median and the 95th percentile).
//
// It runs on the serving engine's admission path, where it must cost less
// than the autoencoder pass it lets an easy image skip, so a bucket count
// and a small in-bucket select stand in for a sort, and no pass over the
// pixels branches on their values. On amd64 those passes run in AVX-512 or
// AVX2, as tensor's active kernel does, with the Go body's IEEE operations
// in every lane and its sums in its order: a score has the same bits under
// every body. The result is that of sorting the pixels with sort.Float64s
// and reading the formula off the sorted slice. The sharpness term, both
// order statistics and so the contrast are equal to the sorted version's,
// up to the sign of a zero order statistic, which changes no score. The
// background sum adds the same values in another order, which gives the
// same bits whenever that float64 sum is exact: it is for every image in
// [0,1] whose nonzero pixels are ≥ 2⁻²¹ (every term is then a multiple of
// 2⁻⁴⁴ and the sum is below 2⁹), so for every image a PNG decodes to. A
// NaN pixel anywhere makes the score NaN, which routes hard.
func HardnessScore(img []float32) float64 {
	if len(img) != dataset.Pixels {
		panic(fmt.Sprintf("generalize: image length %d, want %d", len(img), dataset.Pixels))
	}
	return score(pixelStats((*[dataset.Pixels]float32)(img)))
}

// score combines pixelStats's terms. Hard images are blurry (low sharp),
// washed out (low contrast) and noisy (high bg). Weights scale each term to
// comparable magnitude.
func score(sharp, p50, p95, bg float64) float64 {
	contrast := p95 - p50
	return 1.2*(1-clamp01(sharp)) + 1.0*(1-clamp01(contrast*1.4)) + 3.0*clamp01(bg*4)
}

const (
	// rank50 and rank95 are the sorted positions of the median and of the
	// 95th percentile; the background is the mean of the ranks below rank50.
	rank50 = dataset.Pixels / 2
	rank95 = dataset.Pixels * 95 / 100
	// buckets splits [0,1) into 1/256-wide value buckets and gives 1.0 one
	// of its own, so that each 8-bit level (a multiple of 1/255) has a
	// bucket to itself.
	buckets = 257
)

// pixelStats returns the terms HardnessScore combines: the mean absolute
// 4-neighbour Laplacian over inked pixels, the median, the 95th percentile
// and the mean of the dimmest half of the pixels. All four are NaN if a
// pixel is. The per-pixel passes run in the vector body of the instruction
// set tensor's active kernel was chosen for (tensor.VectorWidth), or in Go
// (goStats), which every vector body matches bit for bit.
func pixelStats(img *[dataset.Pixels]float32) (sharp, p50, p95, bg float64) {
	if w := tensor.VectorWidth(); w != 0 {
		return vectorStats(w, img)
	}
	return goStats(img)
}

// goStats is pixelStats's Go body: three passes over the pixels, each in
// raster order, that no pixel's value branches.
func goStats(img *[dataset.Pixels]float32) (sharp, p50, p95, bg float64) {
	var bucket [dataset.Pixels]uint16
	var nan int32
	for i, v := range img {
		// Negative only for a magnitude above +Inf's.
		nan |= 0x7f800000 - int32(math.Float32bits(v)&0x7fffffff)
		bucket[i] = bucketOf(v)
	}
	if nan < 0 {
		return nans()
	}

	// Sharpness, summed in raster order. A dark centre adds +0 where the
	// sorted version skips it, which leaves every partial sum's bits as
	// they were.
	const side = dataset.Side
	var lap float64
	var lapN int
	for y := 1; y < side-1; y++ {
		up, row, dn := img[(y-1)*side:][:side], img[y*side:][:side], img[(y+1)*side:][:side]
		left, c := float64(row[0]), float64(row[1])
		for x := 1; x < side-1; x++ {
			right := float64(row[x+1])
			l := 4*c - float64(up[x]) - float64(dn[x]) - left - right
			inked := -b2u(!(c < 0.05)) // all ones or zero; a NaN centre counts
			lap += math.Float64frombits(math.Float64bits(l) & (inked >> 1))
			lapN -= int(inked)
			left, c = c, right
		}
	}

	// Gather the two buckets' pixels as order-preserving keys, b50's from
	// the front of keys and top's from the back, and add up every pixel
	// below b50. Each pixel is written to both ends and only an end whose
	// bucket it is moves on, so a write at the other end is overwritten.
	r := rankBuckets(bucket[:], 0)
	var keys [dataset.Pixels]uint32
	n50, n95 := 0, 0
	for i, v := range img {
		k, b := orderKey(v), int(bucket[i])
		keys[n50] = k
		keys[len(keys)-1-n95] = k
		n50 += int(b2u(b == r.b50))
		n95 += int(b2u(b == r.top))
		bg += math.Float64frombits(math.Float64bits(float64(v)) & -b2u(b < r.b50))
	}
	p50, p95, bg = r.orderStats(keys[:n50], keys[len(keys)-n95:], bg)
	return mean(lap, lapN), p50, p95, bg
}

func nans() (sharp, p50, p95, bg float64) {
	n := math.NaN()
	return n, n, n, n
}

// mean is the sharpness: the Laplacian sum over n inked pixels, 0 for none.
func mean(lap float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return lap / float64(n)
}

// ranks places the two order statistics in the value buckets.
type ranks struct {
	b50, below50, n50 int // the median's bucket, the pixels below it and in it
	top, below95      int // the 95th percentile's bucket (−1 if b50), the pixels below it
}

// rankBuckets counts the pixels in each value bucket — zeros in bucket 0,
// then one for each entry of lit, the buckets of the other pixels — and
// finds the bucket holding each rank: the median's walking up from the dark
// end, the 95th percentile's walking down from the bright end (a glyph's
// background and its ink sit near either end).
func rankBuckets(lit []uint16, zeros int) ranks {
	// Four counter arrays keep a run of one bucket from waiting on a single
	// counter's store.
	var h histogram
	h[0][0] = uint16(zeros)
	i := 0
	for ; i+4 <= len(lit); i += 4 {
		h[0][lit[i]]++
		h[1][lit[i+1]]++
		h[2][lit[i+2]]++
		h[3][lit[i+3]]++
	}
	for ; i < len(lit); i++ {
		h[0][lit[i]]++
	}
	b50, below50 := 0, 0
	for ; below50+h.n(b50) <= rank50; b50++ {
		below50 += h.n(b50)
	}
	b95, above95 := buckets-1, 0
	for ; above95+h.n(b95) < dataset.Pixels-rank95; b95-- {
		above95 += h.n(b95)
	}
	top := b95
	if top == b50 {
		top = -1 // one bucket holds both ranks: gather it once
	}
	return ranks{b50: b50, below50: below50, n50: h.n(b50), top: top, below95: dataset.Pixels - above95 - h.n(b95)}
}

type histogram [4][buckets]uint16

// n is bucket b's count.
func (h *histogram) n(b int) int {
	return int(h[0][b]) + int(h[1][b]) + int(h[2][b]) + int(h[3][b])
}

// orderStats reads the median off in50, the keys of bucket b50 in raster
// order, and the 95th percentile off in95, top's keys in any order, and
// finishes the background: bg, the sum of every pixel below b50, gains the
// bucket's share of the dimmest half and becomes a mean.
func (r *ranks) orderStats(in50, in95 []uint32, bg float64) (p50, p95, mean float64) {
	k50 := rank50 - r.below50
	key, even := selectKey(in50, k50)
	p50 = keyValue(key)
	// The dimmest half ends with the bucket's k50 smallest keys, which the
	// select left in in50[:k50].
	switch {
	case !even:
		for _, k := range in50[:k50] {
			bg += keyValue(k)
		}
	case k50 > 0:
		bg += float64(k50) * p50
	}
	switch {
	case r.top >= 0:
		key, _ = selectKey(in95, rank95-r.below95)
	case !even:
		key, _ = selectKey(in50[k50+1:], rank95-rank50-1)
	}
	return p50, keyValue(key), bg / rank50
}

// bucketOf returns v's value bucket, ⌊256·v⌋ clamped to [0, 256]. The clamp
// works on the float's bits, before the conversion to an integer (whose
// result out of range differs between amd64 and arm64), and without a
// branch: every negative value, −0 included, counts as +0, and everything
// above 1, +Inf and a positive NaN included, counts as 1. A non-negative
// float's bits order as its value does.
func bucketOf(v float32) uint16 {
	b := int32(math.Float32bits(v))
	b &^= b >> 31 // negative → +0
	over := b - 0x3f800000
	b -= over &^ (over >> 31) // above 1 → 1
	return uint16(math.Float32frombits(uint32(b)) * 256)
}

// orderKey maps a float to a uint32 that orders as its value does, with −0
// just below +0: a negative value has every bit flipped, any other value
// only its sign bit.
func orderKey(v float32) uint32 {
	b := math.Float32bits(v)
	return b ^ (uint32(int32(b)>>31) | 0x80000000)
}

// keyValue inverts orderKey, widened to float64.
func keyValue(k uint32) float64 {
	return float64(math.Float32frombits(k ^ (^uint32(int32(k)>>31) | 0x80000000)))
}

// selectKey returns the key a full sort of s would put at s[k]. even
// reports that every key in s is equal, found by one scan, and then s is
// left as it was: an 8-bit image fills each bucket with one level, so
// this is the common case. Otherwise s is partially ordered by Hoare
// quickselect with a median-of-three pivot, leaving s[:k] ≤ s[k] ≤ s[k+1:].
func selectKey(s []uint32, k int) (key uint32, even bool) {
	// Four accumulators of the bits that differ from s[0], so the scan does
	// not wait on one.
	first, i := s[0], 0
	var d0, d1, d2, d3 uint32
	for ; i+4 <= len(s); i += 4 {
		d0 |= s[i] ^ first
		d1 |= s[i+1] ^ first
		d2 |= s[i+2] ^ first
		d3 |= s[i+3] ^ first
	}
	for _, v := range s[i:] {
		d0 |= v ^ first
	}
	if d0|d1|d2|d3 == 0 {
		return first, true
	}
	l, h := 0, len(s)-1
	for l < h {
		m := l + (h-l)/2
		if s[m] < s[l] {
			s[m], s[l] = s[l], s[m]
		}
		if s[h] < s[l] {
			s[h], s[l] = s[l], s[h]
		}
		if s[h] < s[m] {
			s[h], s[m] = s[m], s[h]
		}
		pivot := s[m]
		i, j := l, h
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		if k <= j {
			h = j
		} else if k >= i {
			l = i
		} else {
			break
		}
	}
	return s[k], false
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
