package models

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

// runNet compiles net at x's batch and executes it into a fresh tensor. It
// panics on a network the compiler rejects, so goroutines may call it.
func runNet(net *nn.Sequential, x *tensor.Tensor) *tensor.Tensor {
	p := nn.MustCompile(net, x.Shape[0])
	return p.Execute(tensor.New(x.Shape[0], p.OutWidth()), x)
}

func TestLeNetShapes(t *testing.T) {
	r := rng.New(1)
	net := NewLeNet(r)
	out, err := net.OutSize(dataset.Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if out != dataset.NumClasses {
		t.Fatalf("output width %d, want %d", out, dataset.NumClasses)
	}
	x := tensor.New(2, dataset.Pixels)
	x.RandUniform(r, 0, 1)
	y := runNet(net, x)
	if y.Shape[0] != 2 || y.Shape[1] != dataset.NumClasses {
		t.Fatalf("forward shape %v", y.Shape)
	}
}

func TestBranchySegmentShapes(t *testing.T) {
	r := rng.New(2)
	b := NewBranchyLeNet(r, 0.05)
	stemOut, err := b.Stem.OutSize(dataset.Pixels)
	if err != nil {
		t.Fatal(err)
	}
	if stemOut != 3*14*14 {
		t.Fatalf("stem out %d, want %d", stemOut, 3*14*14)
	}
	if w, err := b.Branch.OutSize(stemOut); err != nil || w != dataset.NumClasses {
		t.Fatalf("branch out %d, %v", w, err)
	}
	if w, err := b.Trunk.OutSize(stemOut); err != nil || w != dataset.NumClasses {
		t.Fatalf("trunk out %d, %v", w, err)
	}
}

func TestLightweightSharesParams(t *testing.T) {
	r := rng.New(3)
	b := NewBranchyLeNet(r, 0.05)
	lw := ExtractLightweight(b)
	if w, err := lw.OutSize(dataset.Pixels); err != nil || w != dataset.NumClasses {
		t.Fatalf("lightweight out %d, %v", w, err)
	}
	// Mutating a BranchyNet weight must be visible through the lightweight
	// network (shared tensors).
	b.Stem.Params()[0].Value.Data[0] = 1234
	if lw.Params()[0].Value.Data[0] != 1234 {
		t.Fatal("lightweight does not share stem parameters")
	}
	// The paper's lightweight DNN: 2 conv + 1 FC.
	convs, denses := 0, 0
	for _, p := range lw.Params() {
		switch p.Name {
		case "conv1/W", "bconv/W":
			convs++
		case "bfc/W":
			denses++
		}
	}
	if convs != 2 || denses != 1 {
		t.Fatalf("lightweight has %d conv, %d fc weights; want 2 and 1", convs, denses)
	}
}

func TestDefaultThresholds(t *testing.T) {
	if DefaultThreshold(dataset.MNIST) != 0.05 {
		t.Fatal("MNIST threshold")
	}
	if DefaultThreshold(dataset.FashionMNIST) != 0.5 {
		t.Fatal("FMNIST threshold")
	}
	if DefaultThreshold(dataset.KMNIST) != 0.025 {
		t.Fatal("KMNIST threshold")
	}
}

func TestTableIArchitectures(t *testing.T) {
	m := TableIArch(dataset.MNIST)
	if m.Widths != [3]int{784, 384, 32} {
		t.Fatalf("MNIST arch %v", m.Widths)
	}
	f := TableIArch(dataset.FashionMNIST)
	if f.Widths != [3]int{512, 256, 128} {
		t.Fatalf("FMNIST arch %v", f.Widths)
	}
	k := TableIArch(dataset.KMNIST)
	if k.Widths != [3]int{512, 384, 32} {
		t.Fatalf("KMNIST arch %v", k.Widths)
	}
	if !k.Relu[0] || k.Relu[1] || k.Relu[2] {
		t.Fatalf("KMNIST activations %v, want relu/linear/linear", k.Relu)
	}
}

func TestConvertingAEShapes(t *testing.T) {
	r := rng.New(4)
	for _, f := range []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST} {
		ae := NewTableIAE(f, r)
		w, err := ae.Net.OutSize(dataset.Pixels)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if w != dataset.Pixels {
			t.Fatalf("%v: output %d, want 784", f, w)
		}
		x := tensor.New(3, dataset.Pixels)
		x.RandUniform(r, 0, 1)
		y := runNet(ae.Net, x)
		if y.Shape[0] != 3 || y.Shape[1] != dataset.Pixels {
			t.Fatalf("%v: forward shape %v", f, y.Shape)
		}
		// Sigmoid output: all pixels in (0,1).
		for _, v := range y.Data {
			if v <= 0 || v >= 1 {
				t.Fatalf("%v: sigmoid output %v outside (0,1)", f, v)
			}
		}
	}
}

func TestBranchyInferConsistency(t *testing.T) {
	r := rng.New(6)
	b := NewBranchyLeNet(r, 0.05)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 32, HardFraction: 0.2, Seed: 7})
	res := b.InferDataset(ds)
	if len(res.Pred) != 32 || len(res.Exited) != 32 {
		t.Fatalf("result sizes %d/%d", len(res.Pred), len(res.Exited))
	}
	for i, p := range res.Pred {
		if p < 0 || p >= dataset.NumClasses {
			t.Fatalf("pred[%d] = %d out of range", i, p)
		}
		if res.BranchEntropy[i] < 0 || res.BranchEntropy[i] > math.Log(dataset.NumClasses)+1e-9 {
			t.Fatalf("entropy[%d] = %v out of range", i, res.BranchEntropy[i])
		}
	}
}

func TestBranchyThresholdExtremes(t *testing.T) {
	r := rng.New(8)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 40, HardFraction: 0.3, Seed: 9})
	b := NewBranchyLeNet(r, 0.05)
	// Threshold above max entropy: everything exits early.
	b.Threshold = math.Log(dataset.NumClasses) + 1
	if _, rate := b.Evaluate(ds); rate != 1 {
		t.Fatalf("exit rate %v with huge threshold, want 1", rate)
	}
	// Negative threshold: nothing exits.
	b.Threshold = -1
	if _, rate := b.Evaluate(ds); rate != 0 {
		t.Fatalf("exit rate %v with negative threshold, want 0", rate)
	}
}

func TestJointTrainingImprovesBothHeads(t *testing.T) {
	r := rng.New(10)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 300, HardFraction: 0.1, Seed: 11})
	b := NewBranchyLeNet(r, DefaultThreshold(dataset.MNIST))
	before, _ := b.Evaluate(ds)
	if err := b.TrainJointly(ds, train.Config{Epochs: 3, Seed: 12}); err != nil {
		t.Fatal(err)
	}
	after, _ := b.Evaluate(ds)
	if after < 0.8 {
		t.Fatalf("joint-trained accuracy %v (was %v), want ≥0.8", after, before)
	}
	// Trunk alone must also classify well (threshold -1 = never exit).
	b.Threshold = -1
	if acc, _ := b.Evaluate(ds); acc < 0.8 {
		t.Fatalf("trunk accuracy %v, want ≥0.8", acc)
	}
}

// TestJointTrainConfigValidation checks that joint training rejects the
// inputs the training loop cannot run (a non-positive epoch count, no
// samples) and leaves the weights untouched when it does.
func TestJointTrainConfigValidation(t *testing.T) {
	r := rng.New(13)
	b := NewBranchyLeNet(r, 0.05)
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 10, HardFraction: 0, Seed: 14})
	before := make([][]float32, 0, len(b.Params()))
	for _, p := range b.Params() {
		before = append(before, append([]float32(nil), p.Value.Data...))
	}
	for _, epochs := range []int{0, -1} {
		if err := b.TrainJointly(ds, train.Config{Epochs: epochs, Seed: 14}); err == nil {
			t.Errorf("%d epochs: expected error", epochs)
		}
	}
	empty := &dataset.Dataset{Family: dataset.MNIST, Images: tensor.New(0, dataset.Pixels)}
	if err := b.TrainJointly(empty, train.Config{Epochs: 1, Seed: 14}); err == nil {
		t.Error("no samples: expected error")
	}
	for i, p := range b.Params() {
		for j, v := range p.Value.Data {
			if v != before[i][j] {
				t.Fatalf("param %d changed at %d after rejected configs", i, j)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(15)
	a := NewLeNet(r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a); err != nil {
		t.Fatal(err)
	}
	b := NewLeNet(rng.New(16)) // different init
	if err := LoadParams(&buf, b); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatalf("param %s differs after round trip", pa[i].Name)
			}
		}
	}
}

// TestSaveParamsIsDeterministic: equal weights make equal checkpoint bytes,
// so a checkpoint's hash names its weights.
func TestSaveParamsIsDeterministic(t *testing.T) {
	b := NewBranchyLeNet(rng.New(19), 0.05)
	var first bytes.Buffer
	if err := SaveParams(&first, b.Stem, b.Branch, b.Trunk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var again bytes.Buffer
		if err := SaveParams(&again, b.Stem, b.Branch, b.Trunk); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d: %d bytes that differ from the first save's %d", i+2, again.Len(), first.Len())
		}
	}
}

// TestLoadParamsReadsMapCheckpoint: a checkpoint in the older format, a gob
// name → values map (testdata/params-map.ck, the tiny net below built from
// seed 7), still loads.
func TestLoadParamsReadsMapCheckpoint(t *testing.T) {
	tiny := func(seed uint64) *nn.Sequential {
		r := rng.New(seed)
		return nn.NewSequential("tiny", nn.MustConv2D("conv", 1, 4, 4, 2, 3, 3, 1, 0, r), nn.NewDense("fc", 8, 3, r))
	}
	want, got := tiny(7), tiny(8)
	if err := LoadFile(filepath.Join("testdata", "params-map.ck"), got); err != nil {
		t.Fatal(err)
	}
	pw, pg := want.Params(), got.Params()
	for i := range pw {
		for j, v := range pw[i].Value.Data {
			if math.Float32bits(pg[i].Value.Data[j]) != math.Float32bits(v) {
				t.Fatalf("%s[%d] = %v after loading, want %v", pw[i].Name, j, pg[i].Value.Data[j], v)
			}
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	r := rng.New(17)
	lenet := NewLeNet(r)
	var buf bytes.Buffer
	if err := SaveParams(&buf, lenet); err != nil {
		t.Fatal(err)
	}
	ae := NewTableIAE(dataset.MNIST, r)
	if err := LoadParams(&buf, ae.Net); err == nil {
		t.Fatal("expected load failure for mismatched architecture")
	}
}

func TestBranchySaveLoad(t *testing.T) {
	r := rng.New(18)
	b := NewBranchyLeNet(r, 0.05)
	path := t.TempDir() + "/branchy.ck"
	if err := SaveBranchy(path, b); err != nil {
		t.Fatal(err)
	}
	b2 := NewBranchyLeNet(rng.New(19), 0.05)
	if err := LoadBranchy(path, b2); err != nil {
		t.Fatal(err)
	}
	if b.Stem.Params()[0].Value.Data[0] != b2.Stem.Params()[0].Value.Data[0] {
		t.Fatal("stem weights differ after file round trip")
	}
}

func TestLeNetTrainsOnSmallSet(t *testing.T) {
	if testing.Short() {
		t.Skip("lenet training is slow")
	}
	r := rng.New(20)
	std, err := dataset.LoadStandard(dataset.MNIST, 400, 100, 21)
	if err != nil {
		t.Fatal(err)
	}
	net := NewLeNet(r)
	if _, err := train.Classifier(net, std.Train, train.Config{Epochs: 3, Seed: 22}); err != nil {
		t.Fatal(err)
	}
	if acc := train.EvalClassifier(net, std.Test); acc < 0.6 {
		t.Fatalf("LeNet test accuracy %v, want ≥0.6", acc)
	}
}
