package nn

import (
	"sync"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// wideTestNet is big enough that its dense GEMM steps cross the tensor
// package's parallel threshold: on a host without an FMA kernel they are the
// products that would fan out at a width above 1.
func wideTestNet(r *rng.RNG) *Sequential {
	return NewSequential("wide-test",
		NewDense("fc1", 784, 512, r),
		NewReLU("relu1"),
		NewDense("fc2", 512, 256, r),
		NewReLU("relu2"),
		NewDense("fc3", 256, 10, r),
		NewSoftmax("sm"),
	)
}

// fillPlanTestInput is a deterministic xorshift fill, kept local so this
// file has no dependency on the tensor package's test helpers.
func fillPlanTestInput(data []float32, seed uint32) {
	s := seed
	for i := range data {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		data[i] = float32(int32(s%2048)-1024) / 1024
	}
}

// TestPlansRepackSharedWeightsConcurrently: plans of one network share the
// packed copy of its dense weights, and after a Touch whichever plans
// execute first re-pack it — here four at once, each publishing a complete
// copy. Every plan must serve the new weights; under -race this is the
// shared copy's data-race oracle.
func TestPlansRepackSharedWeightsConcurrently(t *testing.T) {
	net := wideTestNet(rng.New(7))
	const batch, workers = 32, 4
	plans := make([]*Plan, workers)
	for w := range plans {
		p, err := Compile(net, batch)
		if err != nil {
			t.Fatal(err)
		}
		plans[w] = p
	}
	x := tensor.New(batch, 784)
	fillPlanTestInput(x.Data, 3)
	prev := tensor.SetGEMMThreads(1)
	defer tensor.SetGEMMThreads(prev)

	for round := 0; round < 3; round++ {
		for _, p := range net.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] *= 0.5
			}
			p.Touch()
		}
		want := net.Forward(x, false)
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w, p := range plans {
			wg.Add(1)
			go func(w int, p *Plan) {
				defer wg.Done()
				out := p.Execute(nil, x)
				for i := range want.Data {
					if d := out.Data[i] - want.Data[i]; d < -1e-5 || d > 1e-5 {
						errs <- "a plan served stale or torn weights after a concurrent repack"
						return
					}
				}
			}(w, p)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: %s", round, e)
		}
	}
}
