package nn

import (
	"runtime/debug"
	"testing"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// traceTestNet builds a small conv→pool→dense→softmax network covering
// every step kind the compiler emits.
func traceTestNet(t *testing.T) (*Sequential, int) {
	t.Helper()
	r := rng.New(21)
	net := NewSequential("trace-net",
		MustConv2D("conv1", 1, 12, 12, 4, 3, 3, 1, 0, r), // 1×12×12 → 4×10×10
		NewReLU("relu1"),
		MustMaxPool2D("pool1", 4, 10, 10, 2, 2), // → 4×5×5
		NewDense("fc1", 4*5*5, 32, r),
		NewReLU("relu2"),
		NewDense("fc2", 32, 10, r),
		NewSoftmax("sm"),
	)
	return net, 12 * 12
}

func TestPlanStepCostModel(t *testing.T) {
	net, inW := traceTestNet(t)
	p, err := Compile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	steps := p.Steps()
	if len(steps) != 4 { // conv1+relu1 | pool1 | fc1+relu2 | fc2+sm
		t.Fatalf("%d steps: %v", len(steps), p.StepNames())
	}

	// Dense step work is exact: In·Out MACs, Out bias adds + Out relu ops,
	// two source layers; FLOPs are 2·MACs + the other ops.
	fc1 := steps[2]
	if fc1.Op != "dense" || fc1.Name != "fc1+relu2" {
		t.Fatalf("step 2 = %+v", fc1)
	}
	if want := (Work{DenseMACs: 100 * 32, ElemOps: 32 + 32, Layers: 2}); fc1.Work != want {
		t.Fatalf("fc1 work = %+v, want %+v", fc1.Work, want)
	}
	wantFC1 := int64(2*100*32 + 32 + 32)
	if fc1.FLOPsPerImage != wantFC1 {
		t.Fatalf("fc1 FLOPs/img = %d, want %d", fc1.FLOPsPerImage, wantFC1)
	}
	if fc1.FixedBytes != 4*(100*32+32) {
		t.Fatalf("fc1 fixed bytes = %d", fc1.FixedBytes)
	}
	if fc1.BytesPerImage != 4*(100+32) {
		t.Fatalf("fc1 io bytes = %d", fc1.BytesPerImage)
	}

	// Conv step: 2·(InC·KH·KW)·(OutH·OutW)·OutC + bias + relu.
	conv := steps[0]
	wantConv := int64(2*9*100*4 + 400 + 400)
	if conv.FLOPsPerImage != wantConv {
		t.Fatalf("conv FLOPs/img = %d, want %d", conv.FLOPsPerImage, wantConv)
	}

	// The fc2+sm step carries the softmax surcharge: four ops an element.
	fc2 := steps[3]
	if want := (Work{DenseMACs: 32 * 10, ElemOps: 10 + 4*10, Layers: 2}); fc2.Work != want {
		t.Fatalf("fc2 work = %+v, want %+v", fc2.Work, want)
	}
	wantFC2 := int64(2*32*10+10) + 4*10
	if fc2.FLOPsPerImage != wantFC2 {
		t.Fatalf("fc2 FLOPs/img = %d, want %d", fc2.FLOPsPerImage, wantFC2)
	}

	// Every step has a positive, finite cost model.
	for _, s := range steps {
		if s.FLOPsPerImage <= 0 || s.BytesPerImage <= 0 {
			t.Fatalf("step %q has non-positive cost: %+v", s.Name, s)
		}
	}
	_ = inW
}

func TestTracedExecuteEmitsSpans(t *testing.T) {
	net, inW := traceTestNet(t)
	p, err := Compile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(64)
	p.EnableTracing(rec)
	p.SetTraceID(42)

	x := tensor.New(8, inW)
	x.RandUniform(rng.New(3), 0, 1)
	p.Execute(nil, x)
	p.Execute(nil, x)

	spans := rec.Snapshot()
	if len(spans) != 2*len(p.Steps()) {
		t.Fatalf("%d spans after two executions of a %d-step plan", len(spans), len(p.Steps()))
	}
	for i, s := range spans {
		if s.ID != 42 || s.Kind != trace.KindPlanStep || s.Batch != 8 || s.Step != i%len(p.Steps()) {
			t.Fatalf("span %d %+v", i, s)
		}
		if s.Dur < 0 || s.FLOPs <= 0 || s.Bytes <= 0 {
			t.Fatalf("span cost %+v", s)
		}
	}
	if spans[0].Name.String() != "conv1+relu1" {
		t.Fatalf("first span name %q", spans[0].Name.String())
	}
}

// TestStepSpansTileThePlan: the traced loop reads the clock once per step
// boundary, so within one Execute step i+1 starts on the stamp step i ends
// on and the durations add up to last end − first start.
func TestStepSpansTileThePlan(t *testing.T) {
	net, inW := traceTestNet(t)
	p, err := Compile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(64)
	p.EnableTracing(rec)
	x := tensor.New(8, inW)
	x.RandUniform(rng.New(3), 0, 1)
	before := trace.Now()
	p.Execute(nil, x)
	after := trace.Now()

	spans := rec.Snapshot()
	k := len(p.Steps())
	if len(spans) != k || k < 2 {
		t.Fatalf("%d spans for a %d-step plan", len(spans), k)
	}
	var sum int64
	for i, s := range spans {
		if s.Step != i {
			t.Fatalf("span %d is step %d", i, s.Step)
		}
		if i+1 < k && spans[i+1].Start != s.Start+s.Dur {
			t.Errorf("step %d ends at %d, step %d starts at %d", i, s.Start+s.Dur, i+1, spans[i+1].Start)
		}
		sum += s.Dur
	}
	first, last := spans[0], spans[k-1]
	if whole := last.Start + last.Dur - first.Start; sum != whole {
		t.Errorf("step durations sum to %d ns, the plan's interval is %d ns", sum, whole)
	}
	if first.Start < before || last.Start+last.Dur > after {
		t.Errorf("plan interval [%d, %d] outside the call's [%d, %d]", first.Start, last.Start+last.Dur, before, after)
	}
}

// TestTracedExecuteMatchesUntraced: tracing must not change the arithmetic.
func TestTracedExecuteMatchesUntraced(t *testing.T) {
	net, inW := traceTestNet(t)
	plain, err := Compile(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Compile(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	traced.EnableTracing(trace.NewRecorder(32))

	x := tensor.New(4, inW)
	x.RandUniform(rng.New(5), 0, 1)
	a := plain.Execute(nil, x)
	b := traced.Execute(nil, x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("output %d differs: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

// TestTracedExecuteZeroAlloc pins the tentpole's hard constraint: a fully
// traced plan execution — one recorder span per step — performs zero heap allocations once warm.
func TestTracedExecuteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	net, inW := traceTestNet(t)
	p, err := Compile(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableTracing(trace.NewRecorder(64))
	x := tensor.New(8, inW)
	x.RandUniform(rng.New(7), 0, 1)
	p.Execute(nil, x)
	p.Execute(nil, x)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(30, func() { p.Execute(nil, x) }); allocs != 0 {
		t.Errorf("traced Execute: %v allocs per warm call, want 0", allocs)
	}
}

// TestDirectConvStepCostAndBuffer: under a kernel with a tap-accumulate
// routine the lightweight classifier's conv steps are direct steps — same
// modelled FLOPs as through im2col, fewer modelled bytes (the frame and the
// planes in place of the column matrix and the channel-major output), and a
// conv scratch that holds one frame, one group of planes and the row-major matrix of
// the batches below the blocked gate, which still run and still match the
// reference.
func TestDirectConvStepCostAndBuffer(t *testing.T) {
	r := rng.New(31)
	net := NewSequential("lightweight-shaped",
		MustConv2D("conv1", 1, 28, 28, 3, 5, 5, 1, 2, r),
		NewReLU("relu1"),
		MustMaxPool2D("pool1", 3, 28, 28, 2, 2),
		MustConv2D("bconv", 3, 14, 14, 3, 3, 3, 1, 0, r),
		NewReLU("brelu"),
		MustMaxPool2D("bpool", 3, 12, 12, 2, 2),
		NewDense("bfc", 3*6*6, 10, r),
		NewSoftmax("sm"),
	)
	defer tensor.SetBlockedKernelForTest(tensor.SetBlockedKernelForTest(true))
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	tensor.SetGEMMKernelForTest("generic-8x8")
	viaIm2Col, err := Compile(net, 32)
	if err != nil {
		t.Fatal(err)
	}
	conv1 := net.Layers[0].(*Conv2D)
	direct := 0
	for _, k := range tensor.GEMMKernels() {
		tensor.SetGEMMKernelForTest(k.Name)
		if !k.Available || !tensor.DirectConv(conv1.OutC, conv1.Dims, 32) {
			continue
		}
		direct++
		p, err := Compile(net, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.buf) >= len(viaIm2Col.buf) {
			t.Errorf("%s: plan buffer %d floats, no smaller than the %d of the im2col plan", k.Name, len(p.buf), len(viaIm2Col.buf))
		}
		was := viaIm2Col.Steps()
		for i, st := range p.Steps() {
			if st.Work != was[i].Work || st.FixedBytes != was[i].FixedBytes {
				t.Errorf("%s %s: work %+v fixed bytes %d, through im2col %+v / %d", k.Name, st.Name, st.Work, st.FixedBytes, was[i].Work, was[i].FixedBytes)
			}
			if st.Op != "conv" {
				if st.BytesPerImage != was[i].BytesPerImage {
					t.Errorf("%s %s: bytes %d, want the %d of a step that did not change", k.Name, st.Name, st.BytesPerImage, was[i].BytesPerImage)
				}
				continue
			}
			if st.BytesPerImage >= was[i].BytesPerImage {
				t.Errorf("%s %s: %d bytes an image, through im2col %d", k.Name, st.Name, st.BytesPerImage, was[i].BytesPerImage)
			}
		}
		// conv1: 784 in, a 32×32 frame written and read, three 784-element
		// planes written, read and compacted.
		if got, want := p.Steps()[0].BytesPerImage, int64(4*(784+2*32*32+3*3*784)); got != want {
			t.Errorf("%s conv1: %d bytes an image, want %d", k.Name, got, want)
		}
		for _, n := range []int{1, 2, 3, 32} { // bconv is scalar at 1 and 2
			x := tensor.New(n, 784)
			x.RandUniform(rng.New(uint64(n)), 0, 1)
			got, want := p.Execute(nil, x), p.ReferenceExecute(x)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s batch %d: output[%d] = %v, reference %v", k.Name, n, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	if direct == 0 {
		t.Skip("no kernel with a tap-accumulate routine on this CPU")
	}
}
