package models

import (
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// planParityNet names one shipped network for the plan-vs-Forward oracle.
type planParityNet struct {
	name string
	net  *nn.Sequential
	inW  int
}

func planParityNets() []planParityNet {
	br := NewBranchyLeNet(rng.New(11), 0.05)
	return []planParityNet{
		{"converting-ae-sigmoid", NewTableIAE(dataset.MNIST, rng.New(12)).Net, dataset.Pixels},
		{"converting-ae-softmax", NewConvertingAE(TableIArch(dataset.FashionMNIST), OutputSoftmax, L1Coefficient, rng.New(13)).Net, dataset.Pixels},
		{"lightweight", ExtractLightweight(br), dataset.Pixels},
		{"lenet", NewLeNet(rng.New(14)), dataset.Pixels},
		{"branchy-branch", br.Branch, 3 * 14 * 14},
	}
}

// TestPlanParityOracle pins Plan.Execute to Forward over every shipped
// model at batch sizes 1, 7 and 16.
//
// With the kernel dispatch pinned to the scalar paths, plan and Forward run
// identical arithmetic and must agree to ≤1e-6 (observed exactly 0). Under
// production dispatch, Forward's per-sample conv products and the plan's
// batched products may pick different — individually oracle-tested —
// kernels, so agreement there is to the blocked-vs-axpy oracle tolerance
// (nn.TestShippedPlansBitwiseVsUnpackedReference holds the same plans to
// their unpacked steps bit for bit).
func TestPlanParityOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		blocked bool
		tol     float32
	}{
		{"scalar-kernels", false, 1e-6},
		{"production-dispatch", tensor.BlockedKernelEnabled(), 1e-5},
	} {
		prev := tensor.SetBlockedKernelForTest(mode.blocked)
		for _, m := range planParityNets() {
			p, err := nn.Compile(m.net, 16)
			if err != nil {
				tensor.SetBlockedKernelForTest(prev)
				t.Fatalf("%s: %v", m.name, err)
			}
			for _, n := range []int{1, 7, 16} {
				x := tensor.New(n, m.inW)
				x.RandUniform(rng.New(uint64(n)*31+uint64(m.inW)), 0, 1)
				want := m.net.Forward(x)
				got := p.Execute(nil, x)
				if !got.SameShape(want) {
					t.Fatalf("%s/%s batch %d: plan shape %v, want %v", mode.name, m.name, n, got.Shape, want.Shape)
				}
				for i := range want.Data {
					d := got.Data[i] - want.Data[i]
					if d < -mode.tol || d > mode.tol {
						t.Fatalf("%s/%s batch %d: plan[%d] = %v, forward = %v (|diff| > %g)",
							mode.name, m.name, n, i, got.Data[i], want.Data[i], mode.tol)
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
	if aePlan.InWidth() != dataset.Pixels || aePlan.OutWidth() != dataset.Pixels {
		t.Fatalf("AE plan geometry %d→%d, want %d→%d", aePlan.InWidth(), aePlan.OutWidth(), dataset.Pixels, dataset.Pixels)
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
	if brPlan.InWidth() != dataset.Pixels || brPlan.OutWidth() != dataset.NumClasses {
		t.Fatalf("branch plan geometry %d→%d, want %d→%d", brPlan.InWidth(), brPlan.OutWidth(), dataset.Pixels, dataset.NumClasses)
	}
	// Stem conv1+relu1, pool1, branch bconv+brelu, bpool, bfc.
	if got := len(brPlan.StepNames()); got != 5 {
		t.Fatalf("branch plan has %d steps (%v), want 5", got, brPlan.StepNames())
	}
}
