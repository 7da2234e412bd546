package device

import (
	"math"
	"testing"

	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
)

func TestLayerCostConv(t *testing.T) {
	r := rng.New(1)
	// conv 1→3, 5×5, pad 2 on 28×28: 3·28·28·25 MACs.
	c := nn.MustConv2D("c", 1, 28, 28, 3, 5, 5, 1, 2, r)
	cost := LayerCost(c)
	if want := 3 * 28 * 28 * 25; cost.ConvMACs != want {
		t.Fatalf("conv MACs %d, want %d", cost.ConvMACs, want)
	}
	if cost.Layers != 1 {
		t.Fatalf("layers %d", cost.Layers)
	}
}

func TestLayerCostDense(t *testing.T) {
	r := rng.New(2)
	d := nn.NewDense("d", 100, 30, r)
	cost := LayerCost(d)
	if cost.DenseMACs != 3000 {
		t.Fatalf("dense MACs %d, want 3000", cost.DenseMACs)
	}
}

func TestLayerCostPool(t *testing.T) {
	p := nn.MustMaxPool2D("p", 3, 28, 28, 2, 2)
	cost := LayerCost(p)
	if want := 3 * 14 * 14 * 4; cost.PoolOps != want {
		t.Fatalf("pool ops %d, want %d", cost.PoolOps, want)
	}
}

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

// TestLayerCostsAlignWithLayers: the per-layer slice SequentialCost sums is
// index-aligned with the network, charges an activation for the width it
// follows, and leaves inference-identity layers at zero.
func TestLayerCostsAlignWithLayers(t *testing.T) {
	ae := models.NewTableIAE(0, rng.New(7)).Net
	costs := LayerCosts(ae)
	if len(costs) != len(ae.Layers) {
		t.Fatalf("%d costs for %d layers", len(costs), len(ae.Layers))
	}
	var sum Cost
	for i, l := range ae.Layers {
		switch l.(type) {
		case *nn.Dense:
			if costs[i].DenseMACs == 0 || costs[i].Layers != 1 {
				t.Errorf("layer %d (%s): dense cost %+v", i, l.Name(), costs[i])
			}
		case *nn.ReLU:
			if want := costs[i-1].ElemOps; costs[i].ElemOps != want {
				t.Errorf("layer %d (%s): %d elementwise ops, want the preceding dense width %d", i, l.Name(), costs[i].ElemOps, want)
			}
		case *nn.ActivityRegularizer:
			if costs[i] != (Cost{}) {
				t.Errorf("layer %d (%s): identity at inference, cost %+v", i, l.Name(), costs[i])
			}
		}
		sum = sum.Add(costs[i])
	}
	if sum != SequentialCost(ae) {
		t.Fatalf("layer costs sum to %+v, SequentialCost says %+v", sum, SequentialCost(ae))
	}
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
