package compress

import (
	"fmt"
	"math"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// variantParityNet names one compressed-family network that the engine can
// mount as a first-class route, for the plan-vs-training-forward oracle.
type variantParityNet struct {
	name string
	net  *nn.Sequential
}

func variantParityNets(t *testing.T) []variantParityNet {
	t.Helper()
	base := models.NewLeNet(rng.New(41))
	var nets []variantParityNet

	for _, c := range [][3]float64{{1, 1, 1}, {0.5, 0.5, 0.5}, {0.25, 0.5, 0.75}} {
		p, err := Prune(base, lenetKeep(c[0], c[1], c[2]))
		if err != nil {
			t.Fatalf("Prune %v: %v", c, err)
		}
		nets = append(nets, variantParityNet{fmt.Sprintf("prune-conv2=%.2f conv3=%.2f fc1=%.2f", c[0], c[1], c[2]), p})
	}

	sf, err := NewSubFlow(models.NewLeNet(rng.New(42)))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []float64{0.25, 0.5, 1.0} {
		n, err := sf.NetworkAt(u)
		if err != nil {
			t.Fatalf("SubFlow at %v: %v", u, err)
		}
		nets = append(nets, variantParityNet{"subflow-" + n.Name(), n})
	}

	br := models.NewBranchyLeNet(rng.New(43), 0.05)
	light := models.ExtractLightweight(br)
	for _, f := range []float64{1. / 3., 2. / 3.} {
		p, err := Prune(light, map[string]float64{"conv1": f, "bconv": f})
		if err != nil {
			t.Fatalf("Prune lightweight at %v: %v", f, err)
		}
		nets = append(nets, variantParityNet{fmt.Sprintf("light-pruned-conv1=%.2f branch=%.2f", f, f), p})
	}

	mainNet := nn.NewSequential("lenet", append(append([]nn.Layer{}, br.Stem.Layers...), br.Trunk.Layers...)...)
	nets = append(nets, variantParityNet{"main-net", mainNet})
	return nets
}

// TestVariantPlanParityOracle extends the shipped-model oracle
// (models.TestPlanParityOracle) to every compressed variant the degradation
// ladder can mount as a route: pruned LeNets, SubFlow utilization levels,
// the pruned lightweight exit, and the BranchyNet main net. The served
// plan's Execute and the training plan's Forward must agree bit for bit,
// with the blocked path off and on the host's own dispatch.
func TestVariantPlanParityOracle(t *testing.T) {
	for _, mode := range []struct {
		name    string
		blocked bool
	}{
		{"scalar-kernels", false},
		{"production-dispatch", tensor.BlockedKernelEnabled()},
	} {
		prev := tensor.SetBlockedKernelForTest(mode.blocked)
		for _, m := range variantParityNets(t) {
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
				x := tensor.New(n, dataset.Pixels)
				x.RandUniform(rng.New(uint64(n)*31+uint64(dataset.Pixels)), 0, 1)
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
