package train

import (
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

func tinyMLP(r *rng.RNG) *nn.Sequential {
	return nn.NewSequential("mlp",
		nn.NewDense("d1", dataset.Pixels, 32, r),
		nn.NewReLU("r1"),
		nn.NewDense("d2", 32, dataset.NumClasses, r),
	)
}

func TestClassifierLearns(t *testing.T) {
	r := rng.New(1)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 400, HardFraction: 0, Seed: 2})
	net := tinyMLP(r)
	h, err := Classifier(net, ds, Config{
		Epochs: 8, BatchSize: 32, Optimizer: opt.NewAdam(0.002), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.EpochLoss) != 8 {
		t.Fatalf("epochs recorded %d", len(h.EpochLoss))
	}
	if h.EpochLoss[0] <= h.EpochLoss[len(h.EpochLoss)-1] {
		t.Fatalf("loss did not decrease: %v → %v", h.EpochLoss[0], h.EpochLoss[len(h.EpochLoss)-1])
	}
	if acc := EvalClassifier(net, ds); acc < 0.9 {
		t.Fatalf("train accuracy %v, want ≥0.9 on clean data", acc)
	}
}

func TestClassifierGeneralizes(t *testing.T) {
	r := rng.New(4)
	std, err := dataset.LoadStandard(dataset.MNIST, 600, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	net := tinyMLP(r)
	if _, err := Classifier(net, std.Train, Config{
		Epochs: 10, BatchSize: 32, Optimizer: opt.NewAdam(0.002), Seed: 6,
	}); err != nil {
		t.Fatal(err)
	}
	if acc := EvalClassifier(net, std.Test); acc < 0.75 {
		t.Fatalf("test accuracy %v, want ≥0.75", acc)
	}
}

func TestRegressorLearnsIdentity(t *testing.T) {
	r := rng.New(7)
	// Learn the identity map on low-dimensional gaussian data.
	n, d := 256, 8
	x := tensor.New(n, d)
	x.RandNormal(r, 0, 1)
	net := nn.NewSequential("ae",
		nn.NewDense("enc", d, 16, r),
		nn.NewReLU("r"),
		nn.NewDense("dec", 16, d, r),
	)
	h, err := Regressor(net, x, x.Clone(), Config{
		Epochs: 60, BatchSize: 32, Optimizer: opt.NewAdam(0.005), Seed: 8,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochLoss[len(h.EpochLoss)-1] > 0.05 {
		t.Fatalf("identity reconstruction loss %v, want <0.05", h.EpochLoss[len(h.EpochLoss)-1])
	}
}

func TestRegressorReportsExtraLoss(t *testing.T) {
	r := rng.New(9)
	x := tensor.New(16, 4)
	x.RandNormal(r, 0, 1)
	net := nn.NewSequential("ae", nn.NewDense("d", 4, 4, r))
	const penalty = 0.75
	h, err := Regressor(net, x, x.Clone(), Config{
		Epochs: 1, BatchSize: 16, Optimizer: opt.NewAdam(0.001), Seed: 10,
	}, func() float64 { return penalty })
	if err != nil {
		t.Fatal(err)
	}
	if h.EpochLoss[len(h.EpochLoss)-1] < penalty {
		t.Fatalf("loss %v should include the %v penalty", h.EpochLoss[len(h.EpochLoss)-1], penalty)
	}
}

func TestConfigValidation(t *testing.T) {
	r := rng.New(11)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 10, HardFraction: 0, Seed: 12})
	net := tinyMLP(r)
	cases := []Config{
		{Epochs: 0, BatchSize: 8, Optimizer: opt.NewAdam(0.01)},
		{Epochs: 1, BatchSize: 0, Optimizer: opt.NewAdam(0.01)},
		{Epochs: 1, BatchSize: 8, Optimizer: nil},
	}
	for i, cfg := range cases {
		if _, err := Classifier(net, ds, cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRegressorShapeMismatch(t *testing.T) {
	r := rng.New(13)
	net := nn.NewSequential("n", nn.NewDense("d", 4, 4, r))
	x := tensor.New(8, 4)
	y := tensor.New(6, 4)
	if _, err := Regressor(net, x, y, Config{Epochs: 1, BatchSize: 4, Optimizer: opt.NewAdam(0.1)}, nil); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestTrainingLogsEpochs(t *testing.T) {
	r := rng.New(14)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 40, HardFraction: 0, Seed: 15})
	var sb strings.Builder
	net := tinyMLP(r)
	if _, err := Classifier(net, ds, Config{
		Epochs: 2, BatchSize: 16, Optimizer: opt.NewAdam(0.01), Seed: 16, Log: &sb,
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "epoch"); got != 2 {
		t.Fatalf("logged %d epoch lines, want 2", got)
	}
}

func TestClipNormPathRuns(t *testing.T) {
	r := rng.New(17)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 40, HardFraction: 0, Seed: 18})
	net := tinyMLP(r)
	if _, err := Classifier(net, ds, Config{
		Epochs: 1, BatchSize: 16, Optimizer: opt.NewAdam(0.05), ClipNorm: 1, Seed: 19,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTraining(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 80, HardFraction: 0, Seed: 20})
	run := func() []float32 {
		r := rng.New(21)
		net := tinyMLP(r)
		if _, err := Classifier(net, ds, Config{
			Epochs: 2, BatchSize: 16, Optimizer: opt.NewAdam(0.01), Seed: 22,
		}); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), net.Params()[0].Value.Data[:32]...)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weights diverged at %d between identically-seeded runs", i)
		}
	}
}
