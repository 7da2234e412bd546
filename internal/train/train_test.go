package train

import (
	"math"
	"slices"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
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
	losses, err := Classifier(net, ds, Config{Epochs: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 8 {
		t.Fatalf("epochs recorded %d", len(losses))
	}
	if losses[0] <= losses[len(losses)-1] {
		t.Fatalf("loss did not decrease: %v → %v", losses[0], losses[len(losses)-1])
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
	if _, err := Classifier(net, std.Train, Config{Epochs: 10, Seed: 6}); err != nil {
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
	losses, err := Regressor(net, x, x.Clone(), Config{Epochs: 200, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if last := losses[len(losses)-1]; last > 0.05 {
		t.Fatalf("identity reconstruction loss %v, want <0.05", last)
	}
}

// TestRegressorReportsExtraLoss: a network with an activity regularizer
// reports its L1 penalty λ·Σ|y| with each batch's loss. One batch of 16 is
// one epoch, so the epoch's loss is the MSE plus the penalty of the first
// forward pass, and the same network without the regularizer reports the
// MSE alone.
func TestRegressorReportsExtraLoss(t *testing.T) {
	r := rng.New(9)
	x := tensor.New(16, 4)
	x.RandNormal(r, 0, 1)
	const lambda = 0.75
	build := func(layers ...nn.Layer) *nn.Sequential {
		d := nn.NewDense("d", 4, 4, rng.New(10))
		return nn.NewSequential("ae", append([]nn.Layer{d}, layers...)...)
	}
	plan, err := nn.Compile(build(), x.Shape[0])
	if err != nil {
		t.Fatal(err)
	}
	var penalty float64
	for _, v := range plan.Execute(nil, x).Data {
		penalty += math.Abs(float64(v))
	}
	penalty *= lambda
	plain, err := Regressor(build(), x, x.Clone(), Config{Epochs: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	withReg, err := Regressor(build(nn.NewActivityRegularizer("l1", lambda)), x, x.Clone(), Config{Epochs: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if d := withReg[0] - plain[0]; math.Abs(d-penalty) > 1e-6*penalty {
		t.Fatalf("loss with the regularizer %v, without %v: differs by %v, want the penalty %v", withReg[0], plain[0], d, penalty)
	}
}

// TestConfigValidation holds every trainer to the inputs the one loop
// rejects: a non-positive epoch count, whichever trainer passes it (the
// classifier, the regressor, BranchyNet's joint training and the latent
// head all run Minibatches), and no samples.
func TestConfigValidation(t *testing.T) {
	r := rng.New(11)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 10, HardFraction: 0, Seed: 12})
	net := tinyMLP(r)
	noStep := func(*tensor.Tensor, []int) float64 {
		t.Fatal("step ran on a rejected config")
		return 0
	}
	for _, epochs := range []int{0, -1} {
		cfg := Config{Epochs: epochs}
		if _, err := Classifier(net, ds, cfg); err == nil {
			t.Errorf("Classifier with %d epochs: expected error", epochs)
		}
		if _, err := Regressor(net, ds.Images, ds.Images, cfg); err == nil {
			t.Errorf("Regressor with %d epochs: expected error", epochs)
		}
		if _, err := Minibatches("n", ds.Images, net.Params(), 0, cfg, noStep); err == nil {
			t.Errorf("Minibatches with %d epochs: expected error", epochs)
		}
	}
	empty := &dataset.Dataset{Family: dataset.MNIST, Images: tensor.New(0, dataset.Pixels)}
	if _, err := Classifier(net, empty, Config{Epochs: 1}); err == nil {
		t.Error("Classifier on no samples: expected error")
	}
	if _, err := Minibatches("n", tensor.New(0, 4), nil, 0, Config{Epochs: 1}, noStep); err == nil {
		t.Error("Minibatches on no samples: expected error")
	}
}

func TestRegressorShapeMismatch(t *testing.T) {
	r := rng.New(13)
	net := nn.NewSequential("n", nn.NewDense("d", 4, 4, r))
	x := tensor.New(8, 4)
	y := tensor.New(6, 4)
	if _, err := Regressor(net, x, y, Config{Epochs: 1}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestTrainingLogsEpochs(t *testing.T) {
	r := rng.New(14)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 40, HardFraction: 0, Seed: 15})
	var sb strings.Builder
	net := tinyMLP(r)
	if _, err := Classifier(net, ds, Config{Epochs: 2, Seed: 16, Log: &sb}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "epoch"); got != 2 {
		t.Fatalf("logged %d epoch lines, want 2", got)
	}
}

func TestDeterministicTraining(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 80, HardFraction: 0, Seed: 20})
	run := func() []float32 {
		r := rng.New(21)
		net := tinyMLP(r)
		if _, err := Classifier(net, ds, Config{Epochs: 2, Seed: 22}); err != nil {
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

// TestMinibatchesWalksEachPermutation checks the loop's bookkeeping: every
// epoch hands each sample to the step exactly once, in BatchSize slices with
// a short last one, the gathered rows are the samples' own, and one Adam
// step follows each batch.
func TestMinibatchesWalksEachPermutation(t *testing.T) {
	const n, w, epochs = 70, 3, 2
	x := tensor.New(n, w)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	p := &nn.Param{Name: "p", Value: tensor.New(1)}
	var sizes []int
	seen := make([]int, n)
	prev := float32(1)
	losses, err := Minibatches("walk", x, []*nn.Param{p}, 0x5A17, Config{Epochs: epochs, Seed: 1}, func(b *tensor.Tensor, idx []int) float64 {
		// Each earlier batch's gradient of 1 was stepped (the weight fell)
		// and cleared before this batch.
		if v := p.Value.Data[0]; v >= prev || p.Grad().Data[0] != 0 {
			t.Fatalf("batch %d: weight %v after %v, gradient %v: no optimizer step between batches", len(sizes), v, prev, p.Grad().Data[0])
		}
		prev = p.Value.Data[0]
		p.Grad().Data[0] = 1
		sizes = append(sizes, len(idx))
		for j, s := range idx {
			seen[s]++
			if got := b.Data[j*w]; got != float32(s*w) {
				t.Fatalf("row %d of the batch holds sample %v, want %d", j, got/w, s)
			}
		}
		return float64(len(sizes))
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 32, 6, 32, 32, 6}
	if !slices.Equal(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for s, c := range seen {
		if c != epochs {
			t.Fatalf("sample %d seen %d times, want %d", s, c, epochs)
		}
	}
	if len(losses) != epochs {
		t.Fatalf("%d epoch losses, want %d", len(losses), epochs)
	}
	// Epoch 1's batches return 1, 2, 3: the mean weighs each by its rows.
	if want := (1*32 + 2*32 + 3*6) / float64(n); losses[0] != want {
		t.Fatalf("epoch loss %v, want %v", losses[0], want)
	}
}

// TestAccuracy checks the evaluation pass: 256-row batches in order, every
// row once, and the share of rows classified as their label.
func TestAccuracy(t *testing.T) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 600, HardFraction: 0, Seed: 30})
	var starts, sizes []int
	EvalBatches(ds, func(i0 int, x *tensor.Tensor, labels []int) {
		starts, sizes = append(starts, i0), append(sizes, x.Shape[0])
		if len(labels) != x.Shape[0] || &x.Data[0] != &ds.Image(i0)[0] {
			t.Fatalf("batch at %d is not rows %d on", i0, i0)
		}
	})
	if !slices.Equal(starts, []int{0, 256, 512}) || !slices.Equal(sizes, []int{256, 256, 88}) {
		t.Fatalf("batches start at %v with %v rows", starts, sizes)
	}
	// Right on the even samples, wrong on the odd ones.
	i := 0
	acc := Accuracy(ds, func(dst []int, x *tensor.Tensor) {
		for j := range dst {
			dst[j] = ds.Labels[i]
			if i%2 == 1 {
				dst[j] = (dst[j] + 1) % dataset.NumClasses
			}
			i++
		}
	})
	if acc != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", acc)
	}
	if acc := Accuracy(&dataset.Dataset{}, nil); acc != 0 {
		t.Fatalf("accuracy of no samples %v, want 0", acc)
	}
}

// TestEpochAllocsDoNotGrowWithBatches holds Minibatches and Regressor to a
// fixed number of allocations per run, whatever the number of batches: one
// batch header (and Regressor's one target header) serves every batch.
func TestEpochAllocsDoNotGrowWithBatches(t *testing.T) {
	noop := func(*tensor.Tensor, []int) float64 { return 0 }
	runs := map[string]func(rows int) func(){
		"minibatches": func(rows int) func() {
			x := tensor.New(rows, 4)
			return func() {
				if _, err := Minibatches("noop", x, nil, 1, Config{Epochs: 1}, noop); err != nil {
					t.Fatal(err)
				}
			}
		},
		"regressor": func(rows int) func() {
			x := tensor.New(rows, 4)
			net := nn.NewSequential("lin", nn.NewDense("d", 4, 4, rng.New(1)))
			return func() {
				if _, err := Regressor(net, x, x, Config{Epochs: 1}); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			few := testing.AllocsPerRun(3, run(2*BatchSize))
			many := testing.AllocsPerRun(3, run(8*BatchSize))
			if few != many {
				t.Fatalf("%v allocations over 2 batches, %v over 8", few, many)
			}
		})
	}
}
