package nn_test

import (
	"bytes"
	"math"
	"testing"

	"cbnet/internal/compress"
	"cbnet/internal/dataset"
	"cbnet/internal/loss"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// External tests of the plan compiler over the networks the repository
// ships: they need internal/models and internal/compress, which import nn.

type shippedNet struct {
	name string
	net  *nn.Sequential
	inW  int
}

// shippedNets builds every network a plan is compiled for in serving, the
// harness or the degradation ladder: the converting autoencoders of Table I
// with both output activations, the lightweight classifier, LeNet, the
// early-exit branch alone, the BranchyNet main net, and the pruned, SubFlow
// and pruned-lightweight variants — plus the package's mixed test net, for
// the step kinds no shipped network has (a sigmoid fused into a conv).
func shippedNets(t *testing.T) []shippedNet {
	t.Helper()
	br := models.NewBranchyLeNet(rng.New(11), 0.05)
	light := models.ExtractLightweight(br)
	nets := []shippedNet{
		{"ae-mnist-sigmoid", models.NewTableIAE(dataset.MNIST, rng.New(12)).Net, dataset.Pixels},
		{"ae-fmnist-sigmoid", models.NewTableIAE(dataset.FashionMNIST, rng.New(13)).Net, dataset.Pixels},
		{"ae-kmnist-sigmoid", models.NewTableIAE(dataset.KMNIST, rng.New(14)).Net, dataset.Pixels},
		{"ae-fmnist-softmax", models.NewConvertingAE(models.TableIArch(dataset.FashionMNIST), models.OutputSoftmax, models.L1Coefficient, rng.New(15)).Net, dataset.Pixels},
		{"lightweight", light, dataset.Pixels},
		{"lenet", models.NewLeNet(rng.New(16)), dataset.Pixels},
		{"branch", br.Branch, 3 * 14 * 14},
		{"main-net", models.ExtractMainNet(br), dataset.Pixels},
		{"mixed-test", nn.MixedTestNet(rng.New(42)), 144},
	}
	base := models.NewLeNet(rng.New(41))
	for _, cfg := range []compress.PruneConfig{
		{Conv2Keep: 1, Conv3Keep: 1, FC1Keep: 1},
		{Conv2Keep: 0.5, Conv3Keep: 0.5, FC1Keep: 0.5},
		{Conv2Keep: 0.25, Conv3Keep: 0.5, FC1Keep: 0.75},
	} {
		p, err := compress.PruneLeNet(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, shippedNet{"prune-" + cfg.String(), p, dataset.Pixels})
	}
	sf, err := compress.NewSubFlow(models.NewLeNet(rng.New(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.25, 0.3, 0.5, 0.7, 1.0} {
		p, err := sf.NetworkAt(u)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, shippedNet{"subflow-" + p.Name(), p, dataset.Pixels})
	}
	for _, cfg := range []compress.LightweightPruneConfig{
		{Conv1Keep: 1. / 3., BranchKeep: 1. / 3.},
		{Conv1Keep: 2. / 3., BranchKeep: 2. / 3.},
	} {
		pl, err := compress.PruneLightweight(light, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, shippedNet{"light-pruned-" + cfg.String(), pl, dataset.Pixels})
	}
	return nets
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: output[%d] = %v (%#x), reference %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// TestShippedPlansBitwiseVsUnpackedReference is the regression that lets
// the benchmark's accuracy and oracle counts be predicted exactly: every
// shipped plan, at batches 1, 7, 16 and 32, produces the bits of the same
// steps run through the unpacked GEMM, the row-major im2col and the general
// pooling loop — under the host's own dispatch and under every micro-kernel
// it can run with the blocked path forced on.
func TestShippedPlansBitwiseVsUnpackedReference(t *testing.T) {
	nets := shippedNets(t)
	check := func(t *testing.T) {
		for _, m := range nets {
			p, err := nn.Compile(m.net, 32)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, n := range []int{1, 7, 16, 32} {
				x := tensor.New(n, m.inW)
				x.RandUniform(rng.New(uint64(n)*31+uint64(len(m.name))), 0, 1)
				requireSameBits(t, m.name, p.Execute(nil, x), p.ReferenceExecute(x))
			}
		}
	}
	t.Run("host-dispatch", check)

	prevBlocked := tensor.SetBlockedKernelForTest(true)
	prevKernel := tensor.GEMMKernelName()
	defer func() {
		tensor.SetGEMMKernelForTest(prevKernel)
		tensor.SetBlockedKernelForTest(prevBlocked)
	}()
	for _, k := range tensor.GEMMKernels() {
		if k.Available {
			tensor.SetGEMMKernelForTest(k.Name)
			t.Run(k.Name, check)
		}
	}
}

func requireClose(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if d := got.Data[i] - want.Data[i]; d < -1e-5 || d > 1e-5 {
			t.Fatalf("%s: plan[%d] = %v, forward = %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPlanServesTouchedWeights pins the weights contract: a plan compiled
// before the weights change serves the new values after an optimiser step
// and after a checkpoint load into the same tensors — both Touch what they
// write — including the dense weights it holds packed, and a conv kernel
// written alone: conv steps, direct ones too, read their weights in place.
func TestPlanServesTouchedWeights(t *testing.T) {
	const batch = 8
	for _, m := range []shippedNet{
		{"ae", models.NewTableIAE(dataset.FashionMNIST, rng.New(21)).Net, dataset.Pixels},
		{"lightweight", models.ExtractLightweight(models.NewBranchyLeNet(rng.New(22), 0.05)), dataset.Pixels},
		{"lenet", models.NewLeNet(rng.New(23)), dataset.Pixels},
	} {
		p, err := nn.Compile(m.net, batch)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(batch, m.inW)
		x.RandUniform(rng.New(24), 0, 1)
		requireClose(t, m.name+" as compiled", p.Execute(nil, x), m.net.Forward(x, false))
		before := append([]float32(nil), p.Execute(nil, x).Data...)

		// One optimiser step on a large learning rate, so that stale
		// weights could not pass for the new ones.
		y := m.net.Forward(x, true)
		target := tensor.New(y.Shape...)
		target.RandUniform(rng.New(25), 0, 1)
		_, grad := loss.MSE(y, target)
		m.net.Backward(grad)
		opt.NewSGD(0.5, 0).Step(m.net.Params())
		after := p.Execute(nil, x)
		requireClose(t, m.name+" after an optimiser step", after, m.net.Forward(x, false))
		moved := false
		for i := range before {
			moved = moved || before[i] != after.Data[i]
		}
		if !moved {
			t.Fatalf("%s: the optimiser step changed no output; the test would not see a stale plan", m.name)
		}

		// A checkpoint of other weights, loaded into the same tensors.
		var ckpt bytes.Buffer
		other := map[string]*nn.Sequential{
			"ae":          models.NewTableIAE(dataset.FashionMNIST, rng.New(31)).Net,
			"lightweight": models.ExtractLightweight(models.NewBranchyLeNet(rng.New(32), 0.05)),
			"lenet":       models.NewLeNet(rng.New(33)),
		}[m.name]
		if err := models.SaveParams(&ckpt, other); err != nil {
			t.Fatal(err)
		}
		if err := models.LoadParams(&ckpt, m.net); err != nil {
			t.Fatal(err)
		}
		requireClose(t, m.name+" after a checkpoint load", p.Execute(nil, x), other.Forward(x, false))

		// One conv kernel and its bias rewritten in place.
		for _, l := range m.net.Layers {
			conv, ok := l.(*nn.Conv2D)
			if !ok {
				continue
			}
			loaded := append([]float32(nil), p.Execute(nil, x).Data...)
			for i := range conv.W.Value.Data {
				conv.W.Value.Data[i] = -conv.W.Value.Data[i]
			}
			conv.W.Touch()
			conv.B.Value.Data[0] += 0.25
			conv.B.Touch()
			rewritten := p.Execute(nil, x)
			requireClose(t, m.name+" after rewriting "+conv.Name(), rewritten, m.net.Forward(x, false))
			moved := false
			for i := range loaded {
				moved = moved || loaded[i] != rewritten.Data[i]
			}
			if !moved {
				t.Fatalf("%s: rewriting %s changed no output", m.name, conv.Name())
			}
			break
		}
	}
}

// TestPlanRepacksWhenKernelWidthChanges: a plan compiled under one sliver
// width keeps serving right answers under another — the packed weights are
// re-made, the conv operand follows the active kernel by itself.
func TestPlanRepacksWhenKernelWidthChanges(t *testing.T) {
	prevBlocked := tensor.SetBlockedKernelForTest(true)
	prevKernel := tensor.GEMMKernelName()
	defer func() {
		tensor.SetGEMMKernelForTest(prevKernel)
		tensor.SetBlockedKernelForTest(prevBlocked)
	}()
	tensor.SetGEMMKernelForTest("generic-8x8")
	for _, m := range shippedNets(t)[:6] {
		p, err := nn.Compile(m.net, 16)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(16, m.inW)
		x.RandUniform(rng.New(5), 0, 1)
		for _, kernel := range []string{"generic-8x8", "generic-8x16", "generic-8x8"} {
			tensor.SetGEMMKernelForTest(kernel)
			requireSameBits(t, m.name+" under "+kernel, p.Execute(nil, x), p.ReferenceExecute(x))
		}
	}
}
