package device

import (
	"math"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

func TestSequentialCostAddsUp(t *testing.T) {
	r := rng.New(3)
	lenet := models.NewLeNet(r)
	cost := SequentialCost(lenet)
	// conv1 3·784·25 + conv2 48·100·75 + conv3 256·1·1200
	wantConv := 3*784*25 + 48*100*3*25 + 256*48*25
	if cost.ConvMACs != wantConv {
		t.Fatalf("LeNet conv MACs %d, want %d", cost.ConvMACs, wantConv)
	}
	wantDense := 256*84 + 84*10
	if cost.DenseMACs != wantDense {
		t.Fatalf("LeNet dense MACs %d, want %d", cost.DenseMACs, wantDense)
	}
	if cost.Layers != 11 {
		t.Fatalf("LeNet layer count %d, want 11", cost.Layers)
	}
}

// TestShippedNetworkCosts pins every field of each shipped network's cost,
// under every micro-kernel this CPU runs. Table II, the routing prices and
// every modelled joule rest on these counts; a kernel moves a conv step
// between the direct and the im2col path (DirectConv's OutC < mr) but must
// not move its work.
func TestShippedNetworkCosts(t *testing.T) {
	br := models.NewBranchyLeNet(rng.New(1), 0.05)
	ae := func(f dataset.Family) *nn.Sequential { return models.NewTableIAE(f, rng.New(2)).Net }
	cases := []struct {
		name string
		net  *nn.Sequential
		want Cost
	}{
		{"lightweight", models.ExtractLightweight(br), Cost{70464, 1080, 2784, 5578, 7}},
		{"lenet", models.NewLeNet(rng.New(3)), Cost{726000, 22344, 7152, 14994, 11}},
		{"stem", br.Stem, Cost{58800, 0, 2352, 4704, 3}},
		{"branch", br.Branch, Cost{11664, 1080, 432, 874, 4}},
		{"trunk", br.Trunk, Cost{667200, 22344, 4800, 10290, 8}},
		{"ae-mnist", ae(dataset.MNIST), Cost{0, 953088, 0, 3936, 7}},
		{"ae-fmnist", ae(dataset.FashionMNIST), Cost{0, 665600, 0, 3232, 7}},
		{"ae-kmnist", ae(dataset.KMNIST), Cost{0, 635392, 0, 3008, 6}},
	}
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	for _, k := range tensor.GEMMKernels() {
		if !k.Available {
			continue
		}
		tensor.SetGEMMKernelForTest(k.Name)
		for _, c := range cases {
			if got := SequentialCost(c.net); got != c.want {
				t.Errorf("%s under %s: %+v, want %+v", c.name, k.Name, got, c.want)
			}
		}
	}
}

// stepCosts compiles net at batch capacity 32 and returns each step's work
// by step name, plus their sum.
func stepCosts(t *testing.T, net *nn.Sequential) (map[string]Cost, Cost) {
	t.Helper()
	p, err := nn.Compile(net, 32)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]Cost{}
	var sum Cost
	for _, st := range p.Steps() {
		steps[st.Name] = Cost(st.Work)
		sum = sum.Add(Cost(st.Work))
	}
	return steps, sum
}

// checkSteps holds each named step of net to its pinned work. A fused step
// carries every source layer it absorbed — one dispatch each, and one
// elementwise op per element for a relu or a sigmoid on top of the
// producer's bias adds.
func checkSteps(t *testing.T, net *nn.Sequential, want map[string]Cost) {
	t.Helper()
	steps, _ := stepCosts(t, net)
	for name, w := range want {
		got, ok := steps[name]
		if !ok {
			t.Errorf("%s: no step %s", net.Name(), name)
			continue
		}
		if got != w {
			t.Errorf("%s %s: %+v, want %+v", net.Name(), name, got, w)
		}
	}
}

func TestLayerCostConv(t *testing.T) {
	r := rng.New(1)
	// conv 1→3, 5×5, pad 2 on 28×28: 3·28·28·25 MACs and a bias add per output.
	c := nn.MustConv2D("c", 1, 28, 28, 3, 5, 5, 1, 2, r)
	want := Cost{ConvMACs: 3 * 28 * 28 * 25, ElemOps: 3 * 28 * 28, Layers: 1}
	if got := SequentialCost(nn.NewSequential("conv", c)); got != want {
		t.Fatalf("conv cost %+v, want %+v", got, want)
	}
	checkSteps(t, models.NewLeNet(rng.New(4)), map[string]Cost{
		"conv1+relu1": {ConvMACs: 3 * 784 * 25, ElemOps: 2 * 3 * 784, Layers: 2},
	})
}

func TestLayerCostDense(t *testing.T) {
	r := rng.New(2)
	d := nn.NewDense("d", 100, 30, r)
	want := Cost{DenseMACs: 3000, ElemOps: 30, Layers: 1}
	if got := SequentialCost(nn.NewSequential("dense", d)); got != want {
		t.Fatalf("dense cost %+v, want %+v", got, want)
	}
	checkSteps(t, models.NewLeNet(rng.New(4)), map[string]Cost{
		"fc1+relu4": {DenseMACs: 256 * 84, ElemOps: 2 * 84, Layers: 2},
		"fc2":       {DenseMACs: 84 * 10, ElemOps: 10, Layers: 1},
	})
	checkSteps(t, models.NewTableIAE(dataset.MNIST, rng.New(5)).Net, map[string]Cost{
		"ae_fc4+ae_out": {DenseMACs: 32 * 784, ElemOps: 2 * 784, Layers: 2},
	})
}

func TestLayerCostPool(t *testing.T) {
	p := nn.MustMaxPool2D("p", 3, 28, 28, 2, 2)
	want := Cost{PoolOps: 3 * 14 * 14 * 4, Layers: 1}
	if got := SequentialCost(nn.NewSequential("pool", p)); got != want {
		t.Fatalf("pool cost %+v, want %+v", got, want)
	}
	checkSteps(t, models.NewLeNet(rng.New(4)), map[string]Cost{
		"pool1": {PoolOps: 3 * 14 * 14 * 4, Layers: 1},
	})
}

// TestLayerCostsAlignWithLayers: a network's cost is the sum of its plan
// steps' work at any batch capacity, every source layer is priced once, and
// the elided activity regularizer is no layer at all.
func TestLayerCostsAlignWithLayers(t *testing.T) {
	lenet := models.NewLeNet(rng.New(4))
	ae := models.NewTableIAE(dataset.MNIST, rng.New(5)).Net
	for _, net := range []*nn.Sequential{lenet, ae} {
		if _, sum := stepCosts(t, net); sum != SequentialCost(net) {
			t.Errorf("%s: steps at capacity 32 sum to %+v, SequentialCost says %+v", net.Name(), sum, SequentialCost(net))
		}
	}
	if got := SequentialCost(lenet).Layers; got != len(lenet.Layers) {
		t.Errorf("LeNet: %d layers priced of %d", got, len(lenet.Layers))
	}
	if got := SequentialCost(ae).Layers; got != len(ae.Layers)-1 {
		t.Errorf("AE: %d layers priced of %d, want all but the activity regularizer", got, len(ae.Layers))
	}
}

// TestSequentialCostPanicsOnUncompilable: a network the compiler has no plan
// for has no cost either.
func TestSequentialCostPanicsOnUncompilable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SequentialCost of a nested Sequential did not panic")
		}
	}()
	SequentialCost(nn.NewSequential("outer", models.NewLeNet(rng.New(6))))
}

func TestCostAdd(t *testing.T) {
	a := Cost{ConvMACs: 1, DenseMACs: 2, PoolOps: 3, ElemOps: 4, Layers: 5}
	b := Cost{ConvMACs: 10, DenseMACs: 20, PoolOps: 30, ElemOps: 40, Layers: 50}
	s := a.Add(b)
	if s.ConvMACs != 11 || s.DenseMACs != 22 || s.PoolOps != 33 || s.ElemOps != 44 || s.Layers != 55 {
		t.Fatalf("Add = %+v", s)
	}
	if s.TotalMACs() != 33 {
		t.Fatalf("TotalMACs %d", s.TotalMACs())
	}
}

// TestTableIICalibration verifies the device model reproduces the paper's
// LeNet latency anchors (Table II) within 12%.
func TestTableIICalibration(t *testing.T) {
	r := rng.New(4)
	lenet := SequentialCost(models.NewLeNet(r))
	anchors := []struct {
		p    Profile
		want float64 // seconds
	}{
		{RaspberryPi4(), 12.735e-3},
		{GCI(), 1.322e-3},
		{GCIGPU(), 0.266e-3},
	}
	for _, a := range anchors {
		got := a.p.Latency(lenet)
		if math.Abs(got-a.want)/a.want > 0.12 {
			t.Errorf("%s LeNet latency %.4g s, want %.4g ±12%%", a.p.Name, got, a.want)
		}
	}
}

// TestLightweightLatencyShape verifies the structural latency relations the
// paper reports: lightweight ≈ 9–15% of LeNet on the Pi, and the converting
// autoencoder cheap relative to its MAC count (dense rate ≫ conv rate).
func TestLightweightLatencyShape(t *testing.T) {
	r := rng.New(5)
	b := models.NewBranchyLeNet(r, 0.05)
	lenet := SequentialCost(models.NewLeNet(r))
	light := SequentialCost(models.ExtractLightweight(b))
	pi := RaspberryPi4()
	ratio := pi.Latency(light) / pi.Latency(lenet)
	if ratio < 0.05 || ratio > 0.2 {
		t.Fatalf("lightweight/LeNet latency ratio %v, want ≈0.1", ratio)
	}
	ae := models.NewTableIAE(0, r) // MNIST arch
	aeCost := SequentialCost(ae.Net)
	if aeCost.DenseMACs < lenet.TotalMACs() {
		t.Fatalf("MNIST AE should have more raw MACs than LeNet (%d vs %d)", aeCost.DenseMACs, lenet.TotalMACs())
	}
	// Yet its latency must be well under LeNet's — the dense-vs-conv gap.
	if pi.Latency(aeCost) > 0.2*pi.Latency(lenet) {
		t.Fatalf("AE latency %v should be ≪ LeNet %v", pi.Latency(aeCost), pi.Latency(lenet))
	}
}

func TestLatencyMonotonicInWork(t *testing.T) {
	p := GCI()
	small := Cost{ConvMACs: 1000, Layers: 1}
	big := Cost{ConvMACs: 1000000, Layers: 1}
	if p.Latency(big) <= p.Latency(small) {
		t.Fatal("latency not monotone in conv work")
	}
}

func TestKernelTimeExcludesOverhead(t *testing.T) {
	p := RaspberryPi4()
	c := Cost{ConvMACs: 59e6, Layers: 100} // exactly 1 second of conv kernels
	if kt := p.KernelTime(c); math.Abs(kt-1) > 1e-9 {
		t.Fatalf("kernel time %v, want 1", kt)
	}
	if lat := p.Latency(c); lat <= 1 {
		t.Fatalf("latency %v should include overheads beyond kernel time", lat)
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"RaspberryPi4", "GCI", "GCI+K80"} {
		p, err := ByName(want)
		if err != nil || p.Name != want {
			t.Fatalf("ByName(%q) = %v, %v", want, p.Name, err)
		}
	}
	if _, err := ByName("TPU"); err == nil {
		t.Fatal("expected error for unknown device")
	}
}

func TestDeviceOrdering(t *testing.T) {
	// The paper's platforms are strictly ordered by speed: Pi ≪ GCI ≪ GPU.
	r := rng.New(6)
	lenet := SequentialCost(models.NewLeNet(r))
	pi, gci, gpu := RaspberryPi4(), GCI(), GCIGPU()
	if !(pi.Latency(lenet) > gci.Latency(lenet) && gci.Latency(lenet) > gpu.Latency(lenet)) {
		t.Fatalf("device ordering violated: %v %v %v",
			pi.Latency(lenet), gci.Latency(lenet), gpu.Latency(lenet))
	}
}
