package nn_test

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"cbnet/internal/loss"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// TestTrainingIsWidthIndependent: trained weights are the same bits at every
// core count, so a fixture trained on one host is every host's fixture. A
// small convolutional net takes a few Adam steps from one seed at GOMAXPROCS
// 1, 2 and 4, and the FNV-64 of every parameter's bits must agree across the
// three. Nothing in training reads the proc count, so this holds by
// construction; the test keeps it so.
func TestTrainingIsWidthIndependent(t *testing.T) {
	want := trainAtWidth(1)
	for _, procs := range []int{2, 4} {
		for name, sum := range trainAtWidth(procs) {
			if sum != want[name] {
				t.Errorf("GOMAXPROCS %d: %s hashes %#016x, GOMAXPROCS 1 %#016x", procs, name, sum, want[name])
			}
		}
	}
}

// trainAtWidth trains the test net for a few Adam steps at GOMAXPROCS procs
// and returns the FNV-64 of each parameter's bits, by parameter name.
func trainAtWidth(procs int) map[string]uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	r := rng.New(21)
	net := nn.NewSequential("width-net",
		nn.MustConv2D("conv", 1, 8, 8, 4, 3, 3, 1, 1, r),
		nn.NewReLU("relu"),
		nn.MustMaxPool2D("pool", 4, 8, 8, 2, 2),
		nn.NewDense("fc", 4*4*4, 10, r),
	)
	const batch = 16
	x := tensor.New(batch, 8*8)
	x.RandNormal(r, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	plan, err := nn.CompileTraining(net, batch)
	if err != nil {
		panic(err)
	}
	adam := opt.NewAdam(0.01)
	grad := new(tensor.Tensor)
	for step := 0; step < 3; step++ {
		loss.CrossEntropy(grad, plan.Forward(x), labels)
		plan.Backward(grad)
		adam.Step(net.Params())
	}
	sums := make(map[string]uint64)
	for _, p := range net.Params() {
		h := fnv.New64a()
		var b [4]byte
		for _, v := range p.Value.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
		sums[p.Name] = h.Sum64()
	}
	return sums
}
