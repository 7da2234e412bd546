package nn

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// mixedTestNet has a step of every kind the compiler emits: convs with and
// without padding, relu and sigmoid fused into a conv, a pool, bare dense
// layers, and the identity-at-inference ActivityRegularizer the compiler
// drops.
func mixedTestNet(r *rng.RNG) *Sequential {
	return NewSequential("mixed-test",
		MustConv2D("conv1", 1, 12, 12, 4, 3, 3, 1, 1, r),
		NewReLU("relu1"),
		MustMaxPool2D("pool1", 4, 12, 12, 2, 2),
		MustConv2D("conv2", 4, 6, 6, 6, 3, 3, 1, 0, r),
		NewSigmoid("sig"),
		NewDense("fc1", 6*4*4, 32, r),
		NewActivityRegularizer("reg", 1e-6),
		NewDense("fc2", 32, 10, r),
	)
}

// TestCompileFusionAndElision pins the compiler's structural output on the
// mixed test net: identity layers vanish, activations fold into their
// producing GEMM steps, and a dense layer with no trailing activation stays
// a bare step.
func TestCompileFusionAndElision(t *testing.T) {
	net := mixedTestNet(rng.New(42))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"conv1+relu1", "pool1", "conv2+sig", "fc1", "fc2"}
	got := p.StepNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("compiled steps %v, want %v", got, want)
	}
	if p.inW != 144 || p.OutWidth() != 10 || p.BatchCap() != 16 {
		t.Fatalf("plan geometry in=%d out=%d cap=%d, want 144/10/16", p.inW, p.OutWidth(), p.BatchCap())
	}
}

// TestCompileRejectsUnfusedActivation: an activation runs only in the
// epilogue of the dense or conv step directly before it, so one after a pool,
// after a step that already carries an activation, or ahead of every layer is
// a Compile error that names it; an elided ActivityRegularizer between a
// dense layer and its relu does not stop the fusion.
func TestCompileRejectsUnfusedActivation(t *testing.T) {
	r := rng.New(2)
	for _, c := range []struct {
		net  *Sequential
		name string // the activation the error must name
	}{
		{NewSequential("relu-after-pool",
			MustConv2D("conv", 1, 8, 8, 2, 3, 3, 1, 1, r), MustMaxPool2D("pool", 2, 8, 8, 2, 2), NewReLU("late-relu")), "late-relu"},
		{NewSequential("sigmoid-after-relu",
			NewDense("fc", 4, 3, r), NewReLU("relu"), NewSigmoid("second-sig")), "second-sig"},
		{NewSequential("leading-activation", NewReLU("first-relu"), NewDense("fc", 4, 2, r)), "first-relu"},
	} {
		_, err := Compile(c.net, 8)
		if err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: Compile error %v, want one naming %s", c.net.Name(), err, c.name)
		}
	}
	p, err := Compile(NewSequential("reg-between", NewDense("fc", 4, 3, r), NewActivityRegularizer("reg", 1e-6), NewReLU("relu")), 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.StepNames(); len(got) != 1 || got[0] != "fc+relu" {
		t.Fatalf("dense, activity regularizer, relu compiled to %v, want [fc+relu]", got)
	}
}

func TestCompileErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := Compile(NewSequential("empty", NewActivityRegularizer("reg", 1e-6)), 8); err == nil {
		t.Error("no shape-bearing layer: want error")
	}
	if _, err := Compile(mixedTestNet(r), 0); err == nil {
		t.Error("non-positive batch capacity: want error")
	}
	if _, err := Compile(NewSequential("mismatch", NewDense("a", 4, 8, r), NewDense("b", 9, 2, r)), 8); err == nil {
		t.Error("width mismatch between layers: want error")
	}
}

// TestPlanMatchesForward pins both forward passes of the mixed test net —
// the plan's Execute and its training plan's Forward — to ReferenceExecute
// bit for bit, at batches 1, 7 and 16, with the blocked path off (the scalar
// kernels) and on the host's own dispatch.
func TestPlanMatchesForward(t *testing.T) {
	for _, mode := range []struct {
		name    string
		blocked bool
	}{
		{"scalar-kernels", false},
		{"production-dispatch", tensor.BlockedKernelEnabled()},
	} {
		prev := tensor.SetBlockedKernelForTest(mode.blocked)
		net := mixedTestNet(rng.New(7))
		p, err := Compile(net, 16)
		if err != nil {
			tensor.SetBlockedKernelForTest(prev)
			t.Fatal(err)
		}
		tp, err := CompileTraining(net, 16)
		if err != nil {
			tensor.SetBlockedKernelForTest(prev)
			t.Fatal(err)
		}
		for _, n := range []int{1, 7, 16} {
			x := tensor.New(n, 144)
			x.RandUniform(rng.New(uint64(n+3)), -1, 1)
			want := p.ReferenceExecute(x)
			for _, pass := range []struct {
				name string
				got  *tensor.Tensor
			}{{"plan", p.Execute(nil, x)}, {"training forward", tp.Forward(x)}} {
				for i := range want.Data {
					if math.Float32bits(pass.got.Data[i]) != math.Float32bits(want.Data[i]) {
						tensor.SetBlockedKernelForTest(prev)
						t.Fatalf("%s batch %d: %s output[%d] = %v, reference = %v", mode.name, n, pass.name, i, pass.got.Data[i], want.Data[i])
					}
				}
			}
		}
		tensor.SetBlockedKernelForTest(prev)
	}
}

// TestPlanRepeatedMixedBatches reuses one plan across varying batch sizes,
// the engine worker's usage pattern, including executions into a
// caller-owned destination.
func TestPlanRepeatedMixedBatches(t *testing.T) {
	net := mixedTestNet(rng.New(9))
	p, err := Compile(net, 16)
	if err != nil {
		t.Fatal(err)
	}
	for round, n := range []int{4, 1, 16, 2, 16, 8} {
		x := tensor.New(n, 144)
		x.RandUniform(rng.New(uint64(round+1)), -1, 1)
		want := p.ReferenceExecute(x)
		var got *tensor.Tensor
		if round%2 == 0 {
			got = p.Execute(nil, x)
		} else {
			dst := tensor.New(n, p.OutWidth())
			if out := p.Execute(dst, x); out != dst {
				t.Fatalf("round %d: Execute(dst, x) returned %p, want dst", round, out)
			}
			got = dst
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("round %d (batch %d): output[%d] = %v, reference %v", round, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPlanBatchCapPanics(t *testing.T) {
	p, err := Compile(mixedTestNet(rng.New(3)), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batch beyond capacity: want panic")
		}
	}()
	p.Execute(nil, tensor.New(5, 144))
}

// allocsPerRunMulticore is testing.AllocsPerRun without its pin to one
// proc: it counts mallocs over runs warm calls of f at two procs or the
// host's count, whichever is more, with the collector off. A fan-out sized
// from the procs — a goroutine per range, the closure it needs — would show
// up here and not under AllocsPerRun.
func allocsPerRunMulticore(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestPlanExecuteZeroAlloc is the plan's allocation contract: a warm
// Plan.Execute performs no heap allocation and starts no goroutine, at one
// row, at a full batch of 32, on more than one proc — on every kernel:
// neither the blocked path
// nor the scalar path of a host without an FMA kernel
// (CBNET_GEMM_KERNEL=generic-8x8) fans out.
func TestPlanExecuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	for _, net := range []*Sequential{mixedTestNet(rng.New(11)), wideTestNet(rng.New(12)), lightweightShapedNet(rng.New(13))} {
		p, err := Compile(net, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 32} {
			x := tensor.New(n, p.inW)
			x.RandUniform(rng.New(uint64(n)), -1, 1)
			before := runtime.NumGoroutine()
			if allocs := allocsPerRunMulticore(30, func() { p.Execute(nil, x) }); allocs != 0 {
				t.Errorf("%s batch %d: %d allocs per warm Execute, want 0", net.Name(), n, allocs)
			}
			if runtime.NumGoroutine() > before {
				t.Errorf("%s batch %d: Execute left %d new goroutines", net.Name(), n, runtime.NumGoroutine()-before)
			}
		}
	}
}

// lightweightShapedNet has the lightweight classifier's shapes: at batch 32
// its conv and pool steps carry the work the plans used to split over
// goroutines.
func lightweightShapedNet(r *rng.RNG) *Sequential {
	return NewSequential("lightweight-shaped",
		MustConv2D("conv1", 1, 28, 28, 3, 5, 5, 1, 2, r),
		NewReLU("relu1"),
		MustMaxPool2D("pool1", 3, 28, 28, 2, 2),
		MustConv2D("bconv", 3, 14, 14, 3, 3, 3, 1, 0, r),
		NewReLU("brelu"),
		MustMaxPool2D("bpool", 3, 12, 12, 2, 2),
		NewDense("bfc", 3*6*6, 10, r),
	)
}

// TestPoolInferMatchesGeneralLoop holds the inference pooling path to the
// general loop (the one that also records the arg-max) bit for bit: odd
// planes, windows that overlap or skip columns, windows the stride leaves
// short of the edge, and planes carrying NaN, ±Inf and −0.
func TestPoolInferMatchesGeneralLoop(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(-1)), float32(math.Inf(1)), float32(math.Copysign(0, -1)), 0}
	for _, g := range []struct{ c, h, w, pool, stride int }{
		{3, 28, 28, 2, 2}, {3, 12, 12, 2, 2}, {2, 7, 9, 2, 2}, {1, 5, 5, 3, 2}, {2, 9, 7, 3, 1},
		{1, 6, 11, 2, 3}, {4, 5, 4, 2, 1}, {1, 3, 3, 3, 3}, {2, 8, 8, 1, 1}, {1, 10, 9, 4, 3},
	} {
		p, err := NewMaxPool2D("pool", g.c, g.h, g.w, g.pool, g.stride)
		if err != nil {
			t.Fatal(err)
		}
		const n = 3
		x := tensor.New(n, p.InSize())
		x.RandUniform(rng.New(uint64(g.h*g.w+g.pool)), -1, 1)
		r := rng.New(7)
		for i := 0; i < len(x.Data)/3; i++ { // a third of the plane is special values
			x.Data[r.Intn(len(x.Data))] = specials[r.Intn(len(specials))]
		}
		outW := g.c * p.OutH * p.OutW
		want, got := make([]float32, n*outW), make([]float32, n*outW)
		p.poolRange(x.Data, want, make([]int32, n*outW), n)
		p.poolInfer(x.Data, got, n)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%+v: poolInfer[%d] = %v (%#x), general loop %v (%#x)", g, i,
					got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
			}
		}
	}
}

// TestMaxPool2MatchesGo holds inference pooling of 2×2 stride-2 windows —
// tensor.MaxPool2, a vector body under every kernel that has one and the Go
// loop under the generic kernels — to the general loop that also records the
// arg-max, bit for bit: output rows of 1 to 40 values (so every partial last
// chunk and rows of two and more whole ones), even and odd heights and
// widths, batches of 1 to 5, a third of the inputs ±0, ±Inf, denormals or
// NaNs of distinct payloads, quiet and signalling.
func TestMaxPool2MatchesGo(t *testing.T) {
	specials := []uint32{
		0x00000000, 0x80000000, 0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF,
		0x7FC00001, 0xFFC12345, 0x7F800002, 0xFFA54321, 0x7FFFFFFF,
	}
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	for _, k := range tensor.GEMMKernels() {
		if !k.Available {
			continue
		}
		tensor.SetGEMMKernelForTest(k.Name)
		for outW := 1; outW <= 40; outW++ {
			for _, g := range []struct{ c, h, w int }{
				{1 + outW%3, 2 + outW%5, 2 * outW},
				{1 + outW%2, 3 + 2*(outW%3), 2*outW + 1},
			} {
				p := MustMaxPool2D("pool", g.c, g.h, g.w, 2, 2)
				n := 1 + outW%5
				x := tensor.New(n, p.InSize())
				x.RandUniform(rng.New(uint64(outW*100+g.w)), -1, 1)
				r := rng.New(uint64(outW))
				for i := 0; i < len(x.Data)/3; i++ {
					x.Data[r.Intn(len(x.Data))] = math.Float32frombits(specials[r.Intn(len(specials))])
				}
				outLen := n * g.c * p.OutH * p.OutW
				want, got := make([]float32, outLen), make([]float32, outLen)
				p.poolRange(x.Data, want, make([]int32, outLen), n)
				p.poolInfer(x.Data, got, n)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s %+v n=%d: pooled[%d] = %#08x, general loop %#08x", k.Name, g, n, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	}
}

// TestDenseBackwardPackScratchAllocs: a dense step's backward in a warm
// training plan allocates nothing — its transposed products run on the
// plan's own packing panels and dx lands in the plan's gradient buffer — on
// a host without a blocked kernel too, where the transposed products and the
// bias sum run their scalar loops.
func TestDenseBackwardPackScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tp, err := CompileTraining(NewSequential("fc", NewDense("fc", 128, 64, rng.New(5))), 32)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(32, 128)
	x.RandUniform(rng.New(6), -1, 1)
	grad := tensor.New(32, 64)
	grad.RandUniform(rng.New(7), -1, 1)
	g := tensor.New(32, 64)
	backward := func() {
		copy(g.Data, grad.Data)
		tp.Backward(g)
	}
	tp.Forward(x)
	backward() // warm panels
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(20, backward); allocs != 0 {
		t.Errorf("dense backward: %v allocs per warm step, want 0", allocs)
	}
}

// TestConvStepReusesScratch: a warm conv training step — Forward, then
// Backward — allocates no more than a few headers; not its column matrix
// (960 KB here), channel-major gradient or packing panels, which the
// training plan keeps from compile time on, nor the output and input
// gradient, which are views of the plan's buffers.
func TestConvStepReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	c := MustConv2D("conv2", 3, 14, 14, 48, 5, 5, 1, 0, rng.New(5))
	tp, err := CompileTraining(NewSequential("conv", c), 32)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(32, c.InSize())
	x.RandUniform(rng.New(6), -1, 1)
	out, _ := c.OutSize(c.InSize())
	grad, g := tensor.New(32, out), tensor.New(32, out)
	grad.RandUniform(rng.New(7), -1, 1)
	step := func() {
		tp.Forward(x)
		copy(g.Data, grad.Data)
		tp.Backward(g)
	}
	step()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	if got := int(after.TotalAlloc-before.TotalAlloc) / runs; got > 16384 {
		t.Errorf("conv step allocates %d B, want ≤ 16384", got)
	}
}
