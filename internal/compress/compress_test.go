package compress

import (
	"math"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

func TestTopKByImportance(t *testing.T) {
	w := tensor.FromSlice([]float32{
		1, 1, // row 0: norm 2
		5, 5, // row 1: norm 10
		0, 0.5, // row 2: norm 0.5
	}, 3, 2)
	keep := topKByImportance(w, false, 2)
	if len(keep) != 2 || keep[0] != 0 || keep[1] != 1 {
		t.Fatalf("keep = %v, want [0 1]", keep)
	}
}

func TestDenseTopKByImportance(t *testing.T) {
	// w is in×out = 2×3; column norms: c0=2, c1=8, c2=0.1.
	w := tensor.FromSlice([]float32{
		1, 4, 0.1,
		1, 4, 0,
	}, 2, 3)
	keep := topKByImportance(w, true, 2)
	if len(keep) != 2 || keep[0] != 0 || keep[1] != 1 {
		t.Fatalf("keep = %v, want [0 1]", keep)
	}
}

func TestKeepCountBounds(t *testing.T) {
	if keepCount(10, 0.01) != 1 {
		t.Fatal("floor at 1")
	}
	if keepCount(10, 1.0) != 10 {
		t.Fatal("cap at total")
	}
	if keepCount(10, 0.55) != 6 {
		t.Fatal("rounding")
	}
}

// runNet compiles net at x's batch and executes it into a fresh tensor.
func runNet(t *testing.T, net *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	p, err := nn.Compile(net, x.Shape[0])
	if err != nil {
		t.Fatal(err)
	}
	return p.Execute(tensor.New(x.Shape[0], p.OutWidth()), x)
}

func TestPruneFullKeepMatchesOriginal(t *testing.T) {
	r := rng.New(1)
	lenet := models.NewLeNet(r)
	pruned, err := Prune(lenet, lenetKeep(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, dataset.Pixels)
	x.RandUniform(r, 0, 1)
	want := runNet(t, lenet, x)
	got := runNet(t, pruned, x)
	for i := range want.Data {
		if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-4 {
			t.Fatalf("output %d differs: %v vs %v", i, want.Data[i], got.Data[i])
		}
	}
}

func TestPruneShapesAndLatency(t *testing.T) {
	r := rng.New(2)
	lenet := models.NewLeNet(r)
	pruned, err := Prune(lenet, lenetKeep(0.5, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if w, err := pruned.OutSize(dataset.Pixels); err != nil || w != dataset.NumClasses {
		t.Fatalf("pruned OutSize %d, %v", w, err)
	}
	x := tensor.New(3, dataset.Pixels)
	x.RandUniform(r, 0, 1)
	y := runNet(t, pruned, x)
	if y.Shape[0] != 3 || y.Shape[1] != dataset.NumClasses {
		t.Fatalf("forward shape %v", y.Shape)
	}
	pi := device.RaspberryPi4()
	lFull := pi.Latency(device.SequentialCost(lenet))
	lHalf := pi.Latency(device.SequentialCost(pruned))
	if lHalf >= lFull {
		t.Fatalf("pruned latency %v not below full %v", lHalf, lFull)
	}
}

func TestPruneRejectsBadConfig(t *testing.T) {
	r := rng.New(3)
	lenet := models.NewLeNet(r)
	for _, keep := range []map[string]float64{
		lenetKeep(0, 1, 1),
		lenetKeep(1, 1.5, 1),
		lenetKeep(1, 1, -0.1),
		lenetKeep(1, math.NaN(), 1),
		{"conv2": 1, "conv9": 0.5}, // a layer the net lacks
		{"pool2": 0.5},             // not a conv or dense layer
		{"relu3": 0.5},
	} {
		if _, err := Prune(lenet, keep); err == nil {
			t.Errorf("keep %v should be rejected", keep)
		}
	}
}

func TestPruneRejectsNonLeNet(t *testing.T) {
	r := rng.New(4)
	ae := models.NewTableIAE(dataset.MNIST, r)
	if _, err := Prune(ae.Net, lenetKeep(1, 1, 1)); err == nil {
		t.Fatal("expected layout error")
	}
	// The AE's sigmoid has no pruning rule, whatever keep names.
	if _, err := Prune(ae.Net, nil); err == nil || !strings.Contains(err.Error(), "no pruning rule") {
		t.Fatalf("err = %v, want no pruning rule for the sigmoid", err)
	}
}

func TestPruneDoesNotMutateOriginal(t *testing.T) {
	r := rng.New(5)
	lenet := models.NewLeNet(r)
	before := lenet.Params()[0].Value.Clone()
	pruned, err := Prune(lenet, lenetKeep(0.5, 0.5, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pruned.Params()[0].Value.Data {
		pruned.Params()[0].Value.Data[i] = 42
	}
	for i := range before.Data {
		if lenet.Params()[0].Value.Data[i] != before.Data[i] {
			t.Fatal("pruning mutated the original network")
		}
	}
}

func TestSubFlowUtilizationMonotone(t *testing.T) {
	r := rng.New(6)
	lenet := models.NewLeNet(r)
	sf, err := NewSubFlow(lenet)
	if err != nil {
		t.Fatal(err)
	}
	pi := device.RaspberryPi4()
	prev := -1.0
	for _, u := range []float64{0.2, 0.5, 0.8, 1.0} {
		net, err := sf.NetworkAt(u)
		if err != nil {
			t.Fatal(err)
		}
		lat := pi.Latency(device.SequentialCost(net))
		if lat <= prev {
			t.Fatalf("latency not increasing with utilization: %v at u=%v", lat, u)
		}
		prev = lat
	}
}

func TestSubFlowTimeConstraint(t *testing.T) {
	r := rng.New(7)
	lenet := models.NewLeNet(r)
	sf, err := NewSubFlow(lenet)
	if err != nil {
		t.Fatal(err)
	}
	pi := device.RaspberryPi4()
	full := pi.Latency(device.SequentialCost(lenet))
	// A budget of half the full latency must pick a reduced subgraph that
	// actually meets it.
	net, util, err := sf.ForTimeConstraint(pi, full/2)
	if err != nil {
		t.Fatal(err)
	}
	if util >= 1 {
		t.Fatalf("utilization %v should be reduced", util)
	}
	if lat := pi.Latency(device.SequentialCost(net)); lat > full/2 {
		t.Fatalf("chosen subgraph latency %v misses budget %v", lat, full/2)
	}
	// A generous budget keeps the full network.
	_, util, err = sf.ForTimeConstraint(pi, full*2)
	if err != nil {
		t.Fatal(err)
	}
	if util != 1 {
		t.Fatalf("generous budget should pick full net, got util %v", util)
	}
	// Impossible budget: best effort returns the smallest level.
	_, util, err = sf.ForTimeConstraint(pi, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if util != utilizationLevels[0] {
		t.Fatalf("impossible budget should pick smallest level, got %v", util)
	}
	if _, _, err := sf.ForTimeConstraint(pi, 0); err == nil {
		t.Fatal("zero budget should error")
	}
}

func TestSubFlowCaches(t *testing.T) {
	r := rng.New(8)
	sf, err := NewSubFlow(models.NewLeNet(r))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := sf.NetworkAt(0.5)
	b, _ := sf.NetworkAt(0.5)
	if a != b {
		t.Fatal("expected cached subnet instance")
	}
}

func TestAdaDeepSearchMeetsFloor(t *testing.T) {
	r := rng.New(9)
	std, err := dataset.LoadStandard(dataset.MNIST, 300, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	lenet := models.NewLeNet(r)
	if _, err := train.Classifier(lenet, std.Train, train.Config{Epochs: 2, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	base := train.EvalClassifier(lenet, std.Test)
	res, err := AdaDeepSearch(lenet, std.Train, std.Test, device.RaspberryPi4(), AdaDeepOptions{
		MinAccuracy:    base - 0.1,
		FinetuneEpochs: 1,
		Seed:           12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Net == nil {
		t.Fatal("no network returned")
	}
	if res.Accuracy < base-0.1 {
		t.Logf("fallback path: accuracy %v below floor %v (acceptable per contract)", res.Accuracy, base-0.1)
	}
	full := device.RaspberryPi4().Latency(device.SequentialCost(lenet))
	if res.Latency > full {
		t.Fatalf("AdaDeep latency %v not below LeNet %v", res.Latency, full)
	}
}
