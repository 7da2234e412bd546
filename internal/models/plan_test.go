package models

import (
	"math"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// planParityNet names one shipped network for the plan-vs-training-forward
// oracle.
type planParityNet struct {
	name string
	net  *nn.Sequential
	inW  int
}

func planParityNets() []planParityNet {
	br := NewBranchyLeNet(rng.New(11), 0.05)
	return []planParityNet{
		{"converting-ae-mnist", NewTableIAE(dataset.MNIST, rng.New(12)).Net, dataset.Pixels},
		{"converting-ae-fmnist", NewTableIAE(dataset.FashionMNIST, rng.New(13)).Net, dataset.Pixels},
		{"lightweight", ExtractLightweight(br), dataset.Pixels},
		{"lenet", NewLeNet(rng.New(14)), dataset.Pixels},
		{"branchy-branch", br.Branch, 3 * 14 * 14},
	}
}

// TestPlanParityOracle pins the two forward passes of every shipped model —
// the served plan's Execute (packed weights, ping-pong buffers) and the
// training plan's Forward (row-major dense weights, a slot per step) — to
// each other bit for bit at batch sizes 1, 7 and 16, with the blocked path
// off (the scalar kernels) and on the host's own dispatch. A model is
// trained on the arithmetic it is served with.
// (nn.TestShippedPlansBitwiseVsUnpackedReference holds both to the
// unpacked reference steps.)
func TestPlanParityOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		blocked bool
	}{
		{"scalar-kernels", false},
		{"production-dispatch", tensor.BlockedKernelEnabled()},
	} {
		prev := tensor.SetBlockedKernelForTest(mode.blocked)
		for _, m := range planParityNets() {
			p, err := nn.Compile(m.net, 16)
			if err != nil {
				tensor.SetBlockedKernelForTest(prev)
				t.Fatalf("%s: %v", m.name, err)
			}
			tp, err := nn.CompileTraining(m.net, 16)
			if err != nil {
				tensor.SetBlockedKernelForTest(prev)
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, n := range []int{1, 7, 16} {
				x := tensor.New(n, m.inW)
				x.RandUniform(rng.New(uint64(n)*31+uint64(m.inW)), 0, 1)
				want := tp.Forward(x)
				got := p.Execute(nil, x)
				if !got.SameShape(want) {
					tensor.SetBlockedKernelForTest(prev)
					t.Fatalf("%s/%s batch %d: plan shape %v, training forward %v", mode.name, m.name, n, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						tensor.SetBlockedKernelForTest(prev)
						t.Fatalf("%s/%s batch %d: plan[%d] = %v, training forward = %v",
							mode.name, m.name, n, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
		tensor.SetBlockedKernelForTest(prev)
	}
}

// TestModelPlanConstructors pins the models-level plan helpers and the
// expected fusion structure of the shipped networks.
func TestModelPlanConstructors(t *testing.T) {
	ae := NewTableIAE(dataset.MNIST, rng.New(21))
	aePlan, err := ae.CompilePlan(8)
	if err != nil {
		t.Fatal(err)
	}
	aePlan.Execute(nil, tensor.New(1, dataset.Pixels)) // panics on any other input width
	if aePlan.OutWidth() != dataset.Pixels {
		t.Fatalf("AE plan output width %d, want %d", aePlan.OutWidth(), dataset.Pixels)
	}
	// Table I MNIST: fc1+relu, fc2+relu, fc3 (linear), [reg elided], fc4+sigmoid.
	if got := len(aePlan.StepNames()); got != 4 {
		t.Fatalf("AE plan has %d steps (%v), want 4", got, aePlan.StepNames())
	}

	br := NewBranchyLeNet(rng.New(22), 0.05)
	brPlan, err := nn.Compile(ExtractLightweight(br), 8)
	if err != nil {
		t.Fatal(err)
	}
	brPlan.Execute(nil, tensor.New(1, dataset.Pixels))
	if brPlan.OutWidth() != dataset.NumClasses {
		t.Fatalf("branch plan output width %d, want %d", brPlan.OutWidth(), dataset.NumClasses)
	}
	// Stem conv1+relu1, pool1, branch bconv+brelu, bpool, bfc.
	if got := len(brPlan.StepNames()); got != 5 {
		t.Fatalf("branch plan has %d steps (%v), want 5", got, brPlan.StepNames())
	}
}
