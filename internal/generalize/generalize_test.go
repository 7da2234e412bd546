package generalize

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

func TestHardnessScoreSeparatesEasyHard(t *testing.T) {
	r := rng.New(1)
	for _, f := range []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST} {
		var easySum, hardSum float64
		const n = 40
		for i := 0; i < n; i++ {
			easySum += HardnessScore(dataset.RenderSample(f, i%dataset.NumClasses, false, r))
			hardSum += HardnessScore(dataset.RenderSample(f, i%dataset.NumClasses, true, r))
		}
		if hardSum <= easySum {
			t.Errorf("%v: hard mean score %.3f not above easy %.3f", f, hardSum/n, easySum/n)
		}
	}
}

func TestHardnessScorePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HardnessScore(make([]float32, 10))
}

// TestLabelEasyHeuristicCalibration labels the easiest 75 % of a dataset
// easy by score alone, the BranchyNet-free substitute for the Fig. 4
// labelling stage, and holds the labels to the generator's hard flags.
func TestLabelEasyHeuristicCalibration(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.FashionMNIST, N: 600, HardFraction: 0.25, Seed: 2})
	n := ds.Len()
	byScore := make([]int, n)
	scores := make([]float64, n)
	for i := range byScore {
		byScore[i] = i
		scores[i] = HardnessScore(ds.Image(i))
	}
	sort.SliceStable(byScore, func(a, b int) bool { return scores[byScore[a]] < scores[byScore[b]] })
	easy := make([]bool, n)
	for _, i := range byScore[:n-n/4] {
		easy[i] = true
	}
	// The heuristic should agree with the generator's ground truth much
	// better than chance (chance for a 25/75 split ≈ 62.5%).
	agree := 0
	for i, e := range easy {
		if e != ds.Hard[i] {
			agree++
		}
	}
	if share := float64(agree) / float64(n); share < 0.75 {
		t.Errorf("heuristic agreement %.3f, want ≥0.75", share)
	}
}

func TestExtractEncoderEndsAtBottleneck(t *testing.T) {
	r := rng.New(4)
	ae := models.NewTableIAE(dataset.MNIST, r)
	enc := ExtractEncoder(ae)
	w, err := enc.OutSize(dataset.Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if w != ae.BottleneckWidth() {
		t.Fatalf("encoder output %d, want bottleneck %d", w, ae.BottleneckWidth())
	}
	// Shares parameters with the AE.
	ae.Net.Params()[0].Value.Data[0] = 321
	if enc.Params()[0].Value.Data[0] != 321 {
		t.Fatal("encoder does not share AE parameters")
	}
}

func TestNewLatentHeadShapes(t *testing.T) {
	r := rng.New(5)
	head := NewLatentHead(32, r)
	if w, err := head.OutSize(32); err != nil || w != dataset.NumClasses {
		t.Fatalf("head out %d, %v", w, err)
	}
	tiny := NewLatentHead(4, r)
	if w, err := tiny.OutSize(4); err != nil || w != dataset.NumClasses {
		t.Fatalf("tiny head out %d, %v", w, err)
	}
}

// TestEncoderPipelineEndToEnd trains a full system, builds the decoder-free
// variant, and holds it against the path it would replace: on degraded
// renders — the inputs the converting autoencoder exists for — classifying
// the bottleneck code must be no less accurate than decoding it and running
// the lightweight classifier on the reconstruction, at a lower device cost.
// (On the repository benchmark's fixture and pools it is 0.302 against 0.2925
// on the hard pool and 1.000 against 0.991 on the easy one, at 0.56 ms /
// 3.25 mJ against 2.04 ms / 11.94 mJ on the Pi 4 model; see ROADMAP item 2.)
func TestEncoderPipelineEndToEnd(t *testing.T) {
	std, err := dataset.LoadStandard(dataset.MNIST, 600, 200, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultSystemConfig(dataset.MNIST)
	cfg.LeNetEpochs, cfg.BranchyEpochs, cfg.AEEpochs = 1, 3, 6
	cfg.Seed = 7
	sys, err := core.TrainSystem(std, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := BuildEncoderPipeline(sys.CBNet.AE, std.Train, train.Config{Epochs: 6, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*dataset.Dataset{
		"degraded renders": dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 400, HardFraction: 1, Seed: 9}),
		"the test mix":     std.Test,
	} {
		acc, full := ep.Accuracy(ds), sys.CBNet.Accuracy(ds)
		t.Logf("%s: decoder-free accuracy %.3f vs AE→classifier %.3f", name, acc, full)
		if acc < full {
			t.Errorf("decoder-free accuracy %.3f on %s, below AE→classifier's %.3f", acc, name, full)
		}
	}
	pi := device.RaspberryPi4()
	freeS, freeJ, err := core.PriceImage(pi, ep.Cost())
	if err != nil {
		t.Fatal(err)
	}
	convS, convJ, err := core.PriceImage(pi, sys.CBNet.Cost())
	if err != nil {
		t.Fatal(err)
	}
	if freeS >= convS || freeJ >= convJ {
		t.Errorf("decoder-free pipeline (%.3g ms, %.3g mJ) should be cheaper than full CBNet (%.3g ms, %.3g mJ)",
			freeS*1e3, freeJ*1e3, convS*1e3, convJ*1e3)
	}
}

func TestBuildEncoderPipelineEmptyDataset(t *testing.T) {
	r := rng.New(9)
	ae := models.NewTableIAE(dataset.MNIST, r)
	empty := &dataset.Dataset{Family: dataset.MNIST}
	if _, err := BuildEncoderPipeline(ae, empty, train.Config{Epochs: 1}); err == nil {
		t.Fatal("expected empty-dataset error")
	}
}

// TestSelectKeyMatchesSort pins the in-bucket select to a full sort: the
// key at k, the partition around it, and an even bucket left untouched.
func TestSelectKeyMatchesSort(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(dataset.Pixels)
		keys := make([]uint32, n)
		for i := range keys {
			switch trial % 4 {
			case 0:
				keys[i] = uint32(r.Uint64())
			case 1:
				keys[i] = 0x80000000 // one 8-bit level: an even bucket
			case 2:
				keys[i] = uint32(i) // pre-sorted
			default:
				keys[i] = uint32(r.Intn(3)) // long runs of ties
			}
		}
		sorted := append([]uint32(nil), keys...)
		slices.Sort(sorted)
		for _, k := range []int{0, n / 2, n * 95 / 100, n - 1} {
			s := append([]uint32(nil), keys...)
			got, even := selectKey(s, k)
			if got != sorted[k] {
				t.Fatalf("trial %d: selectKey(k=%d) = %#x, sorted[k] = %#x", trial, k, got, sorted[k])
			}
			if even != (sorted[0] == sorted[n-1]) {
				t.Fatalf("trial %d: even = %v for keys %#x..%#x", trial, even, sorted[0], sorted[n-1])
			}
			if even {
				if !slices.Equal(s, keys) {
					t.Fatalf("trial %d: an even bucket was reordered", trial)
				}
				continue
			}
			if slices.Max(s[:k+1]) != got || slices.Min(s[k:]) != got {
				t.Fatalf("trial %d: s is not partitioned around s[%d]", trial, k)
			}
			slices.Sort(s)
			if !slices.Equal(s, sorted) {
				t.Fatalf("trial %d: selectKey lost or duplicated keys", trial)
			}
		}
	}
}

// TestBucketOf pins the bucket edges, the top bucket and the clamp of every
// value outside [0,1], and gives each 8-bit level a bucket of its own.
func TestBucketOf(t *testing.T) {
	inf := float32(math.Inf(1))
	for _, c := range []struct {
		v    float32
		want uint16
	}{
		{0, 0}, {float32(math.Copysign(0, -1)), 0}, {-1e-30, 0}, {-0.5, 0}, {-inf, 0},
		{math.SmallestNonzeroFloat32, 0},
		{1.0 / 256, 1}, {math.Nextafter32(1.0/256, 0), 0},
		{255.0 / 256, 255}, {math.Nextafter32(1, 0), 255},
		{1, 256}, {math.Nextafter32(1, 2), 256}, {1.5, 256}, {1e30, 256}, {inf, 256},
		{math.MaxFloat32, 256},
	} {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	for k := 0; k <= 256; k++ {
		if got := bucketOf(float32(k) / 256); got != uint16(k) {
			t.Errorf("bucketOf(%d/256) = %d", k, got)
		}
	}
	prev := -1
	for g := 0; g < 256; g++ {
		b := int(bucketOf(level8(uint8(g))))
		if b <= prev {
			t.Fatalf("8-bit level %d in bucket %d, level %d in bucket %d", g, b, g-1, prev)
		}
		prev = b
	}
}

// referenceStats is pixelStats as first written: the Laplacian loop skips
// dark centres, and the order statistics and the background are read off
// the pixels sorted with sort.Float64s.
func referenceStats(img []float32) (sharp, p50, p95, bg float64) {
	const side = dataset.Side
	var lap float64
	var lapN int
	for y := 1; y < side-1; y++ {
		for x := 1; x < side-1; x++ {
			c := float64(img[y*side+x])
			if c < 0.05 {
				continue
			}
			l := 4*c - float64(img[(y-1)*side+x]) - float64(img[(y+1)*side+x]) -
				float64(img[y*side+x-1]) - float64(img[y*side+x+1])
			lap += math.Abs(l)
			lapN++
		}
	}
	if lapN > 0 {
		sharp = lap / float64(lapN)
	}
	sorted := make([]float64, len(img))
	for i, v := range img {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	p95 = sorted[len(sorted)*95/100]
	p50 = sorted[len(sorted)/2]
	for _, v := range sorted[:len(sorted)/2] {
		bg += v
	}
	bg /= float64(len(sorted) / 2)
	return sharp, p50, p95, bg
}

func referenceHardnessScore(img []float32) float64 {
	sharp, p50, p95, bg := referenceStats(img)
	return 1.2*(1-clamp01(sharp)) + 1.0*(1-clamp01((p95-p50)*1.4)) + 3.0*clamp01(bg*4)
}

// level8 is an 8-bit gray level as a PNG decodes it: color.Gray's 16-bit
// channels through the BT.601 luma, as in serve's decoder and the
// benchmark's pools.
func level8(g uint8) float32 {
	y := float64(uint32(g) * 0x101)
	return float32((0.299*y + 0.587*y + 0.114*y) / 65535)
}

// quantise8 is a PNG round trip of a render.
func quantise8(img []float32) []float32 {
	out := make([]float32, len(img))
	for i, v := range img {
		out[i] = level8(uint8(v*255 + 0.5))
	}
	return out
}

// exactBackground is the condition under which HardnessScore's background
// sum is exact in any order: every pixel in [0,1], every nonzero one ≥ 2⁻²¹.
func exactBackground(img []float32) bool {
	for _, v := range img {
		if !(v >= 0 && v <= 1) || (v != 0 && v < 1.0/(1<<21)) {
			return false
		}
	}
	return true
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// forEachBody runs f under each body pixelStats has on this host — Go, and
// the vector body of each width tensor's available kernels run — selected
// the way serving selects it, through the active kernel.
func forEachBody(f func(body string)) {
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	var done []int
	for _, k := range tensor.GEMMKernels() {
		if !k.Available {
			continue
		}
		tensor.SetGEMMKernelForTest(k.Name)
		if w := tensor.VectorWidth(); !slices.Contains(done, w) {
			done = append(done, w)
			f(fmt.Sprintf("%d-lane", w))
		}
	}
}

// checkAgainstReference holds HardnessScore under the active body to the
// Go body, bit for bit in all four terms and the score, and to the sort:
// sharpness and both order statistics equal (== lets −0 stand for +0), and
// the score bit-equal where the background sum is exact, else on the same
// side of the routing threshold (engine.DefaultHardnessThreshold, 1.05).
func checkAgainstReference(t *testing.T, what string, img []float32) {
	t.Helper()
	px := (*[dataset.Pixels]float32)(img)
	sharp, p50, p95, bg := pixelStats(px)
	gSharp, g50, g95, gbg := goStats(px)
	for _, p := range [][2]float64{{sharp, gSharp}, {p50, g50}, {p95, g95}, {bg, gbg}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("%s: sharp, p50, p95, bg = %x; the Go body gives %x", what,
				[]uint64{math.Float64bits(sharp), math.Float64bits(p50), math.Float64bits(p95), math.Float64bits(bg)},
				[]uint64{math.Float64bits(gSharp), math.Float64bits(g50), math.Float64bits(g95), math.Float64bits(gbg)})
		}
	}
	if got, want := HardnessScore(img), score(gSharp, g50, g95, gbg); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: score %#x, the Go body gives %#x", what, math.Float64bits(got), math.Float64bits(want))
	}
	rSharp, r50, r95, _ := referenceStats(img)
	if !sameFloat(sharp, rSharp) || !(p50 == r50 || sameFloat(p50, r50)) || !(p95 == r95 || sameFloat(p95, r95)) {
		t.Fatalf("%s: sharp, p50, p95 = %v, %v, %v; sort gives %v, %v, %v", what, sharp, p50, p95, rSharp, r50, r95)
	}
	got, want := HardnessScore(img), referenceHardnessScore(img)
	if exactBackground(img) {
		if !sameFloat(got, want) {
			t.Fatalf("%s: score %v (%#x), sort gives %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	} else if (got < 1.05) != (want < 1.05) {
		t.Fatalf("%s: score %v, sort gives %v: other sides of 1.05", what, got, want)
	}
}

// TestHardnessScoreMatchesSortReference checks the bucket select against
// the full-sort formula, bit for bit, on 6 000 renders — three families,
// easy and hard, each raw and 8-bit quantised — and on the candidates the
// repository benchmark's pools are drawn from (FMNIST, the easy stream raw,
// the hard stream through PNG).
func TestHardnessScoreMatchesSortReference(t *testing.T) {
	forEachBody(func(body string) {
		t.Run(body, func(t *testing.T) {
			r := rng.New(777)
			for _, fam := range []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST} {
				for _, hard := range []bool{false, true} {
					for i := 0; i < 500; i++ {
						img := dataset.RenderSample(fam, i%dataset.NumClasses, hard, r)
						what := fmt.Sprintf("%v hard=%v #%d", fam, hard, i)
						checkAgainstReference(t, what, img)
						checkAgainstReference(t, what+" 8-bit", quantise8(img))
					}
				}
			}
			easy, hard := rng.New(1^0xEA5E), rng.New(1^0x4A2D)
			for i := 0; i < 1000; i++ {
				checkAgainstReference(t, fmt.Sprintf("easy pool #%d", i), dataset.RenderSample(dataset.FashionMNIST, i%dataset.NumClasses, false, easy))
				checkAgainstReference(t, fmt.Sprintf("hard pool #%d", i), quantise8(dataset.RenderSample(dataset.FashionMNIST, i%dataset.NumClasses, true, hard)))
			}
			checkAgainstReference(t, "flat image", make([]float32, dataset.Pixels))
		})
	})
}

// TestHardnessScoreSpecialValues pins what the score does with pixels
// outside [0,1]: negatives and values above 1 (1e30 in the top bucket),
// both zeros, infinities, and NaN, which makes the score NaN.
func TestHardnessScoreSpecialValues(t *testing.T) {
	base := dataset.RenderSample(dataset.MNIST, 3, false, rng.New(5))
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	set := func(vals map[int]float32) []float32 {
		img := append([]float32(nil), base...)
		for i, v := range vals {
			img[i] = v
		}
		return img
	}
	fill := func(v float32, n int) []float32 {
		img := append([]float32(nil), base...)
		for i := 0; i < n; i++ {
			img[(i*37)%dataset.Pixels] = v
		}
		return img
	}
	// The one inked centre, (1, 1), of an otherwise dark image: 4·1 − 1 −
	// 2⁻⁵² − 1 is 2 left to right (3 − 2⁻⁵² rounds to 3), and 2 − 2⁻⁵² with
	// the left neighbour taken before the lower one.
	subtractionOrder := make([]float32, dataset.Pixels)
	subtractionOrder[1] = 1
	subtractionOrder[dataset.Side] = 1
	subtractionOrder[dataset.Side+1] = 1
	subtractionOrder[2*dataset.Side+1] = 0x1p-52
	negZeros := append([]float32(nil), base...)
	for i, v := range negZeros {
		if v == 0 {
			negZeros[i] = negZero
		}
	}
	for what, img := range map[string][]float32{
		"negatives":            set(map[int]float32{0: -0.5, 30: -1e-3, 400: -3}),
		"above one":            set(map[int]float32{1: 1.5, 29: 1e30, 406: 2}),
		"many above one":       fill(1e30, 60),
		"-0 background":        negZeros,
		"-0 and +0 median":     fill(negZero, 400),
		"+Inf":                 set(map[int]float32{2: inf, 407: inf}),
		"-Inf":                 set(map[int]float32{3: -inf, 408: -inf}),
		"+Inf at the 95th":     fill(inf, 45),
		"-Inf at the median":   fill(-inf, 400),
		"+Inf and -Inf":        set(map[int]float32{4: inf, 409: -inf}),
		"all above one":        fill(7, dataset.Pixels),
		"all negative":         fill(-7, dataset.Pixels),
		"max float":            set(map[int]float32{405: math.MaxFloat32}),
		"smallest subnormal":   fill(math.SmallestNonzeroFloat32, 300),
		"bucket edges at 392":  fill(1.0/256, 450),
		"one level everywhere": fill(0.5, dataset.Pixels),
		"+Inf centre":          set(map[int]float32{14*dataset.Side + 14: inf}),
		"+Inf beside +Inf":     set(map[int]float32{14*dataset.Side + 14: inf, 14*dataset.Side + 15: inf}),
		"subtraction order":    subtractionOrder,
	} {
		forEachBody(func(body string) { checkAgainstReference(t, body+" "+what, img) })
	}
	forEachBody(func(body string) {
		for what, at := range map[string]int{"corner": 0, "border": 5, "interior": 14*dataset.Side + 14, "last": dataset.Pixels - 1} {
			for _, nan := range []float32{float32(math.NaN()), math.Float32frombits(0xffc00001)} {
				img := set(map[int]float32{at: nan})
				if h := HardnessScore(img); !math.IsNaN(h) {
					t.Errorf("%s: NaN (%#x) at the %s: score %v, want NaN", body, math.Float32bits(nan), what, h)
				}
			}
		}
	})
}

// TestHardnessScoreAllocates0: the score sits on every admission.
func TestHardnessScoreAllocates0(t *testing.T) {
	img := dataset.RenderSample(dataset.FashionMNIST, 2, true, rng.New(6))
	forEachBody(func(body string) {
		if n := testing.AllocsPerRun(100, func() { HardnessScore(img) }); n != 0 {
			t.Errorf("%s: HardnessScore allocates %v times a call", body, n)
		}
	})
}

// fuzzImage builds 784 pixels from fuzz bytes. Each pixel or run starts
// with an op byte: an 8-bit level, raw float32 bits (NaN to 0; clamped to
// [0,1], −0 kept, unless op has bit 2 set), a bucket edge k/256 or 1.0 or
// its neighbour float, or a run of up to 1 021 equal pixels, long enough to
// straddle the median.
func fuzzImage(data []byte) []float32 {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	img := make([]float32, dataset.Pixels)
	for i := 0; i < len(img); {
		op, b := next(), next()
		v := level8(b)
		n := 1
		switch op % 4 {
		case 1:
			v = math.Float32frombits(uint32(b) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
			switch {
			case v != v, op&4 == 0 && v < 0:
				v = 0
			case op&4 == 0:
				v = min(v, 1) // −0 stays −0
			}
		case 2:
			v = float32(int(b)+int(op>>2&1)) / 256
			switch op >> 3 % 3 {
			case 1:
				v = math.Nextafter32(v, 0)
			case 2:
				v = min(math.Nextafter32(v, 2), 1)
			}
		case 3:
			n = 1 + 4*int(next())
		}
		for ; n > 0 && i < len(img); n-- {
			img[i] = v
			i++
		}
	}
	return img
}

// FuzzHardnessScore holds HardnessScore under every body to the Go body's
// bits on every input, and to the sort: bit-equal where the background sum
// is exact, on the same side of the routing threshold otherwise.
func FuzzHardnessScore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 120, 3, 40, 60, 3, 255, 200})    // ties across rank 392
	f.Add([]byte{3, 7, 110, 2, 3, 3, 30, 255, 1, 1, 0}) // an edge, then 1.0
	f.Add([]byte{1, 1, 0, 0, 0, 1, 0, 0, 0x80, 0x80})   // subnormal and −0
	f.Add([]byte{1, 0, 0, 0x80, 0x3f, 0, 5, 2, 255})    // 1.0, a level, an edge
	// +Inf at (14, 14) among bright pixels.
	f.Add([]byte{3, 200, 101, 0, 200, 5, 0, 0, 0x80, 0x7f, 3, 200, 255})
	// −Inf below the median's bucket.
	f.Add([]byte{3, 0, 50, 5, 0, 0, 0x80, 0xff, 3, 120, 255})
	// A −0 background under a nonzero median.
	f.Add(append(bytes.Repeat([]byte{1, 0, 0, 0, 0x80}, 30), 3, 0, 20, 3, 100, 255))
	// An all-dark interior (no inked centre) under a bright first row.
	f.Add([]byte{3, 255, 6, 3, 10, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		img := fuzzImage(data)
		forEachBody(func(body string) {
			checkAgainstReference(t, fmt.Sprintf("%s % x", body, data), img)
		})
	})
}

// BenchmarkHardnessScore scores a rotation of 64 renders, so the branch
// predictor cannot learn one image: easy is a clean raw render, hard a
// degraded render through PNG, as in the repository benchmark's pools.
func BenchmarkHardnessScore(b *testing.B) {
	for _, c := range []struct {
		name string
		hard bool
	}{{"easy", false}, {"hard", true}} {
		r := rng.New(9)
		imgs := make([][]float32, 64)
		for i := range imgs {
			imgs[i] = dataset.RenderSample(dataset.FashionMNIST, i%dataset.NumClasses, c.hard, r)
			if c.hard {
				imgs[i] = quantise8(imgs[i])
			}
		}
		b.Run(c.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				HardnessScore(imgs[i%len(imgs)])
				i++
			}
		})
	}
}
