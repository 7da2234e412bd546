package generalize

import (
	"math"
	"sort"
	"testing"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/rng"
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

func TestLabelEasyHeuristicCalibration(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.FashionMNIST, N: 600, HardFraction: 0.25, Seed: 2})
	easy, err := LabelEasyHeuristic(ds, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	nEasy := 0
	for _, e := range easy {
		if e {
			nEasy++
		}
	}
	if nEasy < 440 || nEasy > 460 {
		t.Fatalf("easy count %d, want ≈450", nEasy)
	}
	// The heuristic should agree with the generator's ground truth much
	// better than chance (chance for a 25/75 split ≈ 62.5%).
	if agree := HeuristicAgreement(ds, easy); agree < 0.75 {
		t.Errorf("heuristic agreement %.3f, want ≥0.75", agree)
	}
}

func TestLabelEasyHeuristicErrors(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 10, HardFraction: 0, Seed: 3})
	if _, err := LabelEasyHeuristic(ds, 1.0); err == nil {
		t.Fatal("hard fraction 1.0 should error")
	}
	if _, err := LabelEasyHeuristic(ds, -0.1); err == nil {
		t.Fatal("negative fraction should error")
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
	ep, err := BuildEncoderPipeline(sys.CBNet.AE, std.Train, TrainOptions{Seed: 8})
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
	if _, err := BuildEncoderPipeline(ae, empty, TrainOptions{}); err == nil {
		t.Fatal("expected empty-dataset error")
	}
}

// TestNthElementMatchesSort pins the quickselect used by HardnessScore to
// the full-sort order statistics it replaced.
func TestNthElementMatchesSort(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(900)
		vals := make([]float64, n)
		for i := range vals {
			switch trial % 3 {
			case 0:
				vals[i] = r.Float64()
			case 1:
				vals[i] = 0 // constant input
			default:
				vals[i] = float64(i) / float64(n) // pre-sorted input
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for _, k := range []int{0, n / 2, n * 95 / 100, n - 1} {
			scratch := append([]float64(nil), vals...)
			if got := nthElement(scratch, k); got != sorted[k] {
				t.Fatalf("trial %d: nthElement(k=%d) = %v, sorted[k] = %v", trial, k, got, sorted[k])
			}
		}
	}
}

// referenceHardnessScore is the original full-sort implementation, kept as
// the oracle for the quickselect-based fast path.
func referenceHardnessScore(img []float32) float64 {
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
	sharp := 0.0
	if lapN > 0 {
		sharp = lap / float64(lapN)
	}
	sorted := make([]float64, len(img))
	for i, v := range img {
		sorted[i] = float64(v)
	}
	sort.Float64s(sorted)
	p95 := sorted[len(sorted)*95/100]
	p50 := sorted[len(sorted)/2]
	contrast := p95 - p50
	var bg float64
	for _, v := range sorted[:len(sorted)/2] {
		bg += v
	}
	bg /= float64(len(sorted) / 2)
	return 1.2*(1-clamp01(sharp)) + 1.0*(1-clamp01(contrast*1.4)) + 3.0*clamp01(bg*4)
}

// TestHardnessScoreMatchesSortReference checks the quickselect fast path
// against the original full-sort formula, bit for bit.
func TestHardnessScoreMatchesSortReference(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		fam := []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST}[trial%3]
		img := dataset.RenderSample(fam, trial%dataset.NumClasses, trial%2 == 0, r)
		if got, want := HardnessScore(img), referenceHardnessScore(img); got != want {
			t.Fatalf("trial %d: fast %v != reference %v", trial, got, want)
		}
	}
	// Degenerate images exercise the constant-input path.
	flat := make([]float32, dataset.Pixels)
	if got, want := HardnessScore(flat), referenceHardnessScore(flat); got != want {
		t.Fatalf("flat image: fast %v != reference %v", got, want)
	}
}
