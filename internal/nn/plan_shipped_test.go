package nn_test

import (
	"bytes"
	"fmt"
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
// harness or the degradation ladder: the converting autoencoders of Table I,
// the lightweight classifier, LeNet, the early-exit branch alone, the
// BranchyNet main net, and the pruned, SubFlow and pruned-lightweight
// variants — plus the package's mixed test net, for the step kinds no
// shipped network has (a sigmoid fused into a conv).
func shippedNets(t *testing.T) []shippedNet {
	t.Helper()
	br := models.NewBranchyLeNet(rng.New(11), 0.05)
	light := models.ExtractLightweight(br)
	nets := []shippedNet{
		{"ae-mnist-sigmoid", models.NewTableIAE(dataset.MNIST, rng.New(12)).Net, dataset.Pixels},
		{"ae-fmnist-sigmoid", models.NewTableIAE(dataset.FashionMNIST, rng.New(13)).Net, dataset.Pixels},
		{"ae-kmnist-sigmoid", models.NewTableIAE(dataset.KMNIST, rng.New(14)).Net, dataset.Pixels},
		{"lightweight", light, dataset.Pixels},
		{"lenet", models.NewLeNet(rng.New(16)), dataset.Pixels},
		{"branch", br.Branch, 3 * 14 * 14},
		// The BranchyNet main net: stem then trunk, the NewLeNet layout on
		// the branch's shared weights.
		{"main-net", nn.NewSequential("lenet", append(append([]nn.Layer{}, br.Stem.Layers...), br.Trunk.Layers...)...), dataset.Pixels},
		{"mixed-test", nn.MixedTestNet(rng.New(42)), 144},
	}
	base := models.NewLeNet(rng.New(41))
	for _, c := range [][3]float64{{1, 1, 1}, {0.5, 0.5, 0.5}, {0.25, 0.5, 0.75}} {
		p, err := compress.Prune(base, map[string]float64{"conv2": c[0], "conv3": c[1], "fc1": c[2]})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, shippedNet{fmt.Sprintf("prune-conv2=%.2f conv3=%.2f fc1=%.2f", c[0], c[1], c[2]), p, dataset.Pixels})
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
	for _, f := range []float64{1. / 3., 2. / 3.} {
		pl, err := compress.Prune(light, map[string]float64{"conv1": f, "bconv": f})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, shippedNet{fmt.Sprintf("light-pruned-conv1=%.2f branch=%.2f", f, f), pl, dataset.Pixels})
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
// shipped plan — the models' networks and every compressed variant the
// degradation ladder can mount — at batches 1, 7, 16 and 32, produces the
// bits of the same steps run through the unpacked GEMM, the row-major im2col
// and the general pooling loop, and so does the forward pass of the
// network's training plan, whose dense steps read W row-major. Under the
// host's own dispatch, with the blocked path off (the scalar kernels), and
// under every micro-kernel the host can run with the blocked path forced on.
func TestShippedPlansBitwiseVsUnpackedReference(t *testing.T) {
	nets := shippedNets(t)
	check := func(t *testing.T) {
		for _, m := range nets {
			p, err := nn.Compile(m.net, 32)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			tp, err := nn.CompileTraining(m.net, 32)
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, n := range []int{1, 7, 16, 32} {
				x := tensor.New(n, m.inW)
				x.RandUniform(rng.New(uint64(n)*31+uint64(len(m.name))), 0, 1)
				want := p.ReferenceExecute(x)
				requireSameBits(t, m.name, p.Execute(nil, x), want)
				requireSameBits(t, m.name+" training forward", tp.Forward(x), want)
			}
		}
	}
	t.Run("host-dispatch", check)

	prevBlocked := tensor.SetBlockedKernelForTest(false)
	prevKernel := tensor.GEMMKernelName()
	defer func() {
		tensor.SetGEMMKernelForTest(prevKernel)
		tensor.SetBlockedKernelForTest(prevBlocked)
	}()
	t.Run("scalar-kernels", check)
	tensor.SetBlockedKernelForTest(true)
	for _, k := range tensor.GEMMKernels() {
		if k.Available {
			tensor.SetGEMMKernelForTest(k.Name)
			t.Run(k.Name, check)
		}
	}
}

// TestTrainPlanZeroAlloc: a warm training step — the plan's Forward, the
// loss into the trainer's one gradient, and Backward — allocates nothing:
// the FashionMNIST autoencoder under MSE and LeNet under cross-entropy, at a
// full minibatch of 32 and then at a short last one of 7 on the same
// gradient.
func TestTrainPlanZeroAlloc(t *testing.T) {
	if nn.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	target := tensor.New(32, dataset.Pixels)
	target.RandUniform(rng.New(64), 0, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % dataset.NumClasses
	}
	for _, m := range []struct {
		shippedNet
		loss func(g, y, target *tensor.Tensor, labels []int) float64
	}{
		{shippedNet{"ae-fmnist", models.NewTableIAE(dataset.FashionMNIST, rng.New(61)).Net, dataset.Pixels},
			func(g, y, target *tensor.Tensor, _ []int) float64 { return loss.MSE(g, y, target) }},
		{shippedNet{"lenet", models.NewLeNet(rng.New(62)), dataset.Pixels},
			func(g, y, _ *tensor.Tensor, labels []int) float64 { return loss.CrossEntropy(g, y, labels) }},
	} {
		plan, err := nn.CompileTraining(m.net, 32)
		if err != nil {
			t.Fatal(err)
		}
		g := new(tensor.Tensor)
		for _, n := range []int{32, 7} {
			x := tensor.New(n, m.inW)
			x.RandUniform(rng.New(63), 0, 1)
			tgt, lbl := tensor.FromSlice(target.Data[:n*dataset.Pixels], n, dataset.Pixels), labels[:n]
			step := func() {
				m.loss(g, plan.Forward(x), tgt, lbl)
				plan.Backward(g)
			}
			step()
			if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
				t.Errorf("%s batch %d: %v allocs per warm training step, want 0", m.name, n, allocs)
			}
		}
	}
}

// TestZeroGradClears: a training plan's Backward leaves gradients in the
// params, and the Adam step that reads them clears them, so the next
// minibatch accumulates from zero.
func TestZeroGradClears(t *testing.T) {
	r := rng.New(14)
	net := nn.NewSequential("n", nn.NewDense("d", 3, 2, r))
	tp, err := nn.CompileTraining(net, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3)
	x.RandNormal(r, 0, 1)
	y := tp.Forward(x)
	g := tensor.New(y.Shape...)
	for i := range g.Data {
		g.Data[i] = 1
	}
	tp.Backward(g)
	if net.Params()[0].Grad().AbsSum() == 0 {
		t.Fatal("expected nonzero grads after backward")
	}
	opt.NewAdam(0.01).Step(net.Params())
	for _, p := range net.Params() {
		if p.Grad().AbsSum() != 0 {
			t.Fatalf("grad %s not cleared", p.Name)
		}
	}
}

// reference compiles a fresh plan of net and returns its ReferenceExecute
// of x: the network's current weights, read in place.
func reference(t *testing.T, net *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	p, err := nn.Compile(net, x.Shape[0])
	if err != nil {
		t.Fatal(err)
	}
	return p.ReferenceExecute(x)
}

// sameBits reports whether a and b hold the same float32 bits.
func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
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
		requireSameBits(t, m.name+" as compiled", p.Execute(nil, x), reference(t, m.net, x))
		before := append([]float32(nil), p.Execute(nil, x).Data...)

		// One optimiser step on a large learning rate, so that stale
		// weights could not pass for the new ones. Adam calls Touch.
		tp, err := nn.CompileTraining(m.net, batch)
		if err != nil {
			t.Fatal(err)
		}
		y := tp.Forward(x)
		target := tensor.New(y.Shape...)
		target.RandUniform(rng.New(25), 0, 1)
		grad := new(tensor.Tensor)
		loss.MSE(grad, y, target)
		tp.BackwardParams(grad)
		opt.NewAdam(0.1).Step(m.net.Params())
		want := reference(t, m.net, x)
		requireSameBits(t, m.name+" after an optimiser step", p.Execute(nil, x), want)
		if sameBits(before, want.Data) {
			t.Fatalf("%s: the optimiser step moved no output; the test would not see a stale plan", m.name)
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
		requireSameBits(t, m.name+" after a checkpoint load", p.Execute(nil, x), reference(t, other, x))

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
			want := reference(t, m.net, x)
			requireSameBits(t, m.name+" after rewriting "+conv.Name(), p.Execute(nil, x), want)
			if sameBits(loaded, want.Data) {
				t.Fatalf("%s: rewriting %s moved no output", m.name, conv.Name())
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

// TestPlansAreBatchInvariant: an image's bits do not depend on the batch it
// rides in. The whole plans of the MNIST and FashionMNIST autoencoders
// (sigmoid output), the lightweight classifier, its pruned variant, LeNet
// and BranchyNet's stem, branch and trunk, compiled at capacities 1, 2, 3, 7
// and 32 and run over 32 inputs a full batch at a time, give every input the
// bits of its row in the one batch of 32, under every kernel the host runs
// with the dispatch it would get at init. BranchyNet's exit cascade and its
// threshold tuner rest on this: the trunk runs on whichever rows a batch
// sends it. About 40 % of the inputs' values are zero, so the one-row gemv's
// zero skip runs.
func TestPlansAreBatchInvariant(t *testing.T) {
	br := models.NewBranchyLeNet(rng.New(51), 0.05)
	light := models.ExtractLightweight(br)
	stemW, err := br.Stem.OutSize(dataset.Pixels)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := compress.Prune(light, map[string]float64{"conv1": 2. / 3., "bconv": 2. / 3.})
	if err != nil {
		t.Fatal(err)
	}
	nets := []shippedNet{
		{"ae-mnist-sigmoid", models.NewTableIAE(dataset.MNIST, rng.New(53)).Net, dataset.Pixels},
		{"ae-fmnist-sigmoid", models.NewTableIAE(dataset.FashionMNIST, rng.New(54)).Net, dataset.Pixels},
		{"lightweight", light, dataset.Pixels},
		{"lightweight-pruned", pruned, dataset.Pixels},
		{"lenet", models.NewLeNet(rng.New(55)), dataset.Pixels},
		{"branchy-stem", br.Stem, dataset.Pixels},
		{"branchy-branch", br.Branch, stemW},
		{"branchy-trunk", br.Trunk, stemW},
	}
	const n = 32
	x := tensor.New(n, max(dataset.Pixels, stemW))
	r := rng.New(52)
	x.RandUniform(r, 0, 1)
	for i := range x.Data {
		if r.Float64() < 0.4 {
			x.Data[i] = 0
		}
	}
	defer tensor.SetBlockedKernelForTest(tensor.SetBlockedKernelForTest(tensor.BlockedKernelEnabled()))
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	for _, k := range tensor.GEMMKernels() {
		if !k.Available {
			continue
		}
		tensor.SetGEMMKernelForTest(k.Name)
		tensor.SetBlockedKernelForTest(k.FMA)
		for _, net := range nets {
			var want []float32
			for _, c := range []int{n, 1, 2, 3, 7} {
				p, err := nn.Compile(net.net, c)
				if err != nil {
					t.Fatal(err)
				}
				outW := p.OutWidth()
				got := make([]float32, 0, n*outW)
				for lo := 0; lo < n; lo += c {
					hi := min(n, lo+c)
					got = append(got, p.Execute(nil, tensor.FromSlice(x.Data[lo*net.inW:hi*net.inW], hi-lo, net.inW)).Data...)
				}
				if want == nil {
					want = got
					continue
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s %s at capacity %d: image %d output[%d] = %#08x, %#08x in a batch of %d", k.Name, net.name, c,
							i/outW, i%outW, math.Float32bits(got[i]), math.Float32bits(want[i]), n)
					}
				}
			}
		}
	}
}
