package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// testPipeline builds an untrained pipeline — engine behaviour (batching,
// routing, admission, stats) does not depend on weights.
func testPipeline() *core.Pipeline {
	r := rng.New(1)
	b := models.NewBranchyLeNet(r, 0.05)
	return &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, r),
		Classifier: models.ExtractLightweight(b),
	}
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(testPipeline(), cfg)
	t.Cleanup(e.Close)
	return e
}

func easyImage(seed uint64) []float32 {
	return dataset.RenderSample(dataset.MNIST, int(seed)%dataset.NumClasses, false, rng.New(seed))
}

func hardImage(seed uint64) []float32 {
	return dataset.RenderSample(dataset.MNIST, int(seed)%dataset.NumClasses, true, rng.New(seed))
}

func TestSubmitClassifies(t *testing.T) {
	e := testEngine(t, Config{Workers: 2})
	res, err := e.Submit(context.Background(), Request{Pixels: easyImage(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class < 0 || res.Class >= dataset.NumClasses {
		t.Fatalf("class %d out of range", res.Class)
	}
	if res.BatchSize < 1 {
		t.Fatalf("batch size %d", res.BatchSize)
	}
	if res.Route != string(RouteEasy) && res.Route != string(RouteHard) {
		t.Fatalf("route %q", res.Route)
	}
}

func TestSubmitMatchesPipeline(t *testing.T) {
	// The engine must agree with direct pipeline calls on both routes.
	pipe := testPipeline()
	e := New(pipe, Config{})
	defer e.Close()
	for i, img := range [][]float32{easyImage(7), hardImage(8)} {
		res, err := e.Submit(context.Background(), Request{Pixels: img})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.FromSlice(append([]float32(nil), img...), 1, dataset.Pixels)
		var want int
		if res.Route == string(RouteEasy) {
			want = pipe.ClassifyDirect(x)[0]
		} else {
			want = pipe.Infer(x)[0]
		}
		if res.Class != want {
			t.Fatalf("image %d on %s route: engine %d, pipeline %d", i, res.Route, res.Class, want)
		}
	}
}

func TestSubmitRejectsBadLength(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Submit(context.Background(), Request{Pixels: []float32{1, 2}}); err == nil {
		t.Fatal("expected pixel-length error")
	}
}

func TestRoutingCalibration(t *testing.T) {
	// With the default threshold, the generator's clean renders
	// overwhelmingly route easy and its degraded renders mostly route
	// hard, across all three families. Deterministic seeds keep this
	// stable.
	r := rng.New(99)
	for _, fam := range []dataset.Family{dataset.MNIST, dataset.FashionMNIST, dataset.KMNIST} {
		const n = 100
		easyAsEasy, hardAsHard := 0, 0
		for i := 0; i < n; i++ {
			cls := r.Intn(dataset.NumClasses)
			if name, _ := RouteOf(dataset.RenderSample(fam, cls, false, r), DefaultHardnessThreshold); name == RouteEasy {
				easyAsEasy++
			}
			if name, _ := RouteOf(dataset.RenderSample(fam, cls, true, r), DefaultHardnessThreshold); name == RouteHard {
				hardAsHard++
			}
		}
		if easyAsEasy < 80*n/100 {
			t.Errorf("%v: only %d/%d clean renders routed easy", fam, easyAsEasy, n)
		}
		if hardAsHard < 50*n/100 {
			t.Errorf("%v: only %d/%d degraded renders routed hard", fam, hardAsHard, n)
		}
	}
}

func TestIncludeConvertedForcesHardRoute(t *testing.T) {
	e := testEngine(t, Config{})
	img := easyImage(11)
	if name, _ := RouteOf(img, e.Config().HardnessThreshold); name != RouteEasy {
		t.Skip("render unexpectedly hard; cannot exercise the forced-route path")
	}
	res, err := e.Submit(context.Background(), Request{Pixels: img, IncludeConverted: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != string(RouteHard) {
		t.Fatalf("route %q, want hard when converted image requested", res.Route)
	}
	if len(res.Converted) != dataset.Pixels {
		t.Fatalf("converted length %d", len(res.Converted))
	}
}

func TestDisableRoutingPinsHard(t *testing.T) {
	e := testEngine(t, Config{DisableRouting: true})
	res, err := e.Submit(context.Background(), Request{Pixels: easyImage(13)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != string(RouteHard) {
		t.Fatalf("route %q, want hard with routing disabled", res.Route)
	}
}

func TestBatchCoalescing(t *testing.T) {
	// Wedge the single worker's first batch on a gate until every request
	// of the burst has been admitted, so the followers deterministically
	// coalesce instead of racing the worker's throughput (the un-gated
	// version flaked when the worker drained requests one by one faster
	// than the submitters could queue them).
	e, gate := gateEngine(t, Config{MaxBatch: 16, Workers: 1})
	const n = 24
	results := make(chan Result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := e.Submit(context.Background(), Request{Pixels: hardImage(uint64(i))})
			if err != nil {
				t.Error(err)
				results <- Result{}
				return
			}
			results <- res
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); e.Stats().Submitted < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests admitted", e.Stats().Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate) // release the wedged batch and everything queued behind it
	maxBatch := 0
	for i := 0; i < n; i++ {
		if res := <-results; res.BatchSize > maxBatch {
			maxBatch = res.BatchSize
		}
	}
	if maxBatch < 2 {
		t.Fatalf("no coalescing observed: max batch size %d", maxBatch)
	}
	if maxBatch > 16 {
		t.Fatalf("batch size %d exceeds MaxBatch", maxBatch)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(testPipeline(), Config{})
	e.Close()
	if _, err := e.Submit(context.Background(), Request{Pixels: easyImage(17)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	e.Close()
}

func TestSubmitContextCanceled(t *testing.T) {
	e := testEngine(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Submit(ctx, Request{Pixels: easyImage(19)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := testEngine(t, Config{Workers: 2})
	const n = 10
	for i := 0; i < n; i++ {
		img := easyImage(uint64(i))
		if i%2 == 1 {
			img = hardImage(uint64(i))
		}
		if _, err := e.Submit(context.Background(), Request{Pixels: img}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Submitted != n || s.Completed != n {
		t.Fatalf("submitted/completed %d/%d, want %d/%d", s.Submitted, s.Completed, n, n)
	}
	if s.Rejected != 0 {
		t.Fatalf("rejected %d, want 0", s.Rejected)
	}
	if len(s.Routes) != 2 {
		t.Fatalf("routes %d, want 2", len(s.Routes))
	}
	var images int64
	for _, r := range s.Routes {
		images += r.Images
		if r.Images > 0 {
			if r.Batches == 0 || r.MeanBatchSize <= 0 {
				t.Fatalf("route %s: %d images but batches=%d mean=%v", r.Route, r.Images, r.Batches, r.MeanBatchSize)
			}
			if r.InferMS.Mean <= 0 {
				t.Fatalf("route %s: non-positive infer latency", r.Route)
			}
		}
		if r.QueueCap <= 0 {
			t.Fatalf("route %s: queue cap %d", r.Route, r.QueueCap)
		}
	}
	if images != n {
		t.Fatalf("route images sum %d, want %d", images, n)
	}
	if s.ThroughputPerSec <= 0 {
		t.Fatalf("throughput %v", s.ThroughputPerSec)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MaxBatch <= 0 || cfg.Workers <= 0 || cfg.QueueDepth <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.HardnessThreshold != DefaultHardnessThreshold {
		t.Fatalf("threshold %v", cfg.HardnessThreshold)
	}
}

func TestDisableRoutingFoldsWorkerBudget(t *testing.T) {
	// With routing off, the easy route's worker budget moves to the hard
	// route, and Config() reports the per-route count actually running.
	e := testEngine(t, Config{Workers: 3, DisableRouting: true})
	if got := e.Config().Workers; got != 6 {
		t.Fatalf("Config().Workers = %d, want 6 (easy budget folded into hard)", got)
	}
	on := testEngine(t, Config{Workers: 3})
	if got := on.Config().Workers; got != 3 {
		t.Fatalf("Config().Workers = %d, want 3 with routing enabled", got)
	}
}

// TestIssueRequestIDMonotonic: pre-issued IDs and Submit-assigned IDs
// draw from the same sequence, so correlation never collides.
func TestIssueRequestIDMonotonic(t *testing.T) {
	e := testEngine(t, Config{Workers: 1})
	a := e.IssueRequestID()
	b := e.IssueRequestID()
	if b <= a {
		t.Fatalf("IDs not increasing: %d then %d", a, b)
	}
	res, err := e.Submit(context.Background(), Request{ID: b, Pixels: easyImage(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != b {
		t.Errorf("Submit dropped caller-issued ID: got %d, want %d", res.RequestID, b)
	}
	res, err = e.Submit(context.Background(), Request{Pixels: easyImage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID <= b {
		t.Errorf("auto-assigned ID %d not after pre-issued %d", res.RequestID, b)
	}
}

// mysteryLayer is an nn.Layer of a type the plan compiler has no step for.
type mysteryLayer struct{ *nn.ReLU }

// TestNewPanicsOnUncompilableVariant: a variant network the plan compiler
// rejects is a configuration error New reports by panicking, naming the
// route, the network and the layer — there is no slower path to serve it on.
func TestNewPanicsOnUncompilableVariant(t *testing.T) {
	net := nn.NewSequential("odd-net", nn.NewDense("fc", dataset.Pixels, dataset.NumClasses, rng.New(1)), mysteryLayer{nn.NewReLU("mystery")})
	defer func() {
		r := recover()
		if r == nil {
			return // the Error below has fired
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"odd-route", "odd-net", "mystery"} {
			if !strings.Contains(msg, want) {
				t.Errorf("New panicked with %q, want it to name %q", msg, want)
			}
		}
	}()
	New(testPipeline(), Config{Workers: 1, Variants: []Variant{{Name: "odd-route", Net: net}}}).Close()
	t.Error("New accepted a variant the plan compiler rejects")
}
