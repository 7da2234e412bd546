package models

import (
	"math"
	"slices"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

// TestCascadeZeroAlloc: a warm cascade run allocates nothing — over a full
// and a short batch, each at a threshold that sends some rows to the trunk
// and lets the rest exit, and at ones where every row exits and none does.
func TestCascadeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b := NewBranchyLeNet(rng.New(71), 0.05)
	const capacity = 16
	c := b.CompileCascade(capacity)
	res := InferenceResult{Pred: make([]int, capacity), Exited: make([]bool, capacity), BranchEntropy: make([]float64, capacity)}
	for _, n := range []int{capacity, 5} {
		x := tensor.New(n, dataset.Pixels)
		x.RandUniform(rng.New(72), 0, 1)
		c.Run(res, x, math.Inf(1))
		h := slices.Clone(res.BranchEntropy[:n])
		slices.Sort(h)
		for _, tc := range []struct {
			name      string
			threshold float64
			exits     int
		}{
			{"mixed", h[n/2], n / 2},
			{"all-exit", math.Inf(1), n},
			{"none-exit", -1, 0},
		} {
			run := func() { c.Run(res, x, tc.threshold) }
			run()
			if exits := countTrue(res.Exited[:n]); exits != tc.exits {
				t.Fatalf("batch %d %s: %d rows exit, want %d", n, tc.name, exits, tc.exits)
			}
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("batch %d %s: %v allocs per warm cascade run, want 0", n, tc.name, allocs)
			}
		}
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, v := range bs {
		if v {
			n++
		}
	}
	return n
}

// TestTuneThresholdMatchesSweep holds TuneThreshold, which reads the
// validation set twice and scores every candidate from those two passes,
// to the sweep it replaced: one Evaluate per candidate threshold with
// b.Threshold set to it. On a trained BranchyNet every candidate's accuracy
// and exit rate are equal, and so is the threshold chosen, at several
// accuracy tolerances.
func TestTuneThresholdMatchesSweep(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 500, HardFraction: 0.3, Seed: 73})
	val := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 300, HardFraction: 0.3, Seed: 74})
	b := NewBranchyLeNet(rng.New(75), DefaultThreshold(dataset.MNIST))
	if err := b.TrainJointly(ds, train.Config{Epochs: 4, Seed: 76}); err != nil {
		t.Fatal(err)
	}
	evaluateAt := func(th float64) (float64, float64) {
		defer func(orig float64) { b.Threshold = orig }(b.Threshold)
		b.Threshold = th
		return b.Evaluate(val)
	}
	c := b.CompileCascade(train.EvalRows) // TuneThreshold's two passes
	branch, trunk := c.inferDataset(val, math.Inf(1)), c.inferDataset(val, -1)
	candidates := []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.4, 1.8}
	distinct := map[float64]bool{}
	for _, th := range append([]float64{-1}, candidates...) {
		acc, rate := score(val.Labels, branch.BranchEntropy, th, branch.Pred, trunk.Pred)
		wantAcc, wantRate := evaluateAt(th)
		if acc != wantAcc || rate != wantRate {
			t.Fatalf("threshold %v: accuracy %v exit rate %v, the sweep's %v %v", th, acc, rate, wantAcc, wantRate)
		}
		distinct[rate] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("only %d distinct exit rates over the candidates: the branch is not trained enough to tell thresholds apart", len(distinct))
	}
	for _, drop := range []float64{0, 0.01, 0.05, 1} {
		ref, _ := evaluateAt(-1)
		want, wantRate := b.Threshold, -1.0
		for _, th := range candidates {
			acc, rate := evaluateAt(th)
			if acc+1e-9 >= ref-drop && rate > wantRate {
				wantRate, want = rate, th
			}
		}
		if got := b.TuneThreshold(val, drop); got != want || b.Threshold != want {
			t.Fatalf("drop %v: tuned %v (b.Threshold %v), the sweep chose %v", drop, got, b.Threshold, want)
		}
	}
}
