package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
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
			if name, _ := RouteOf(dataset.RenderSample(fam, cls, false, r)); name == RouteEasy {
				easyAsEasy++
			}
			if name, _ := RouteOf(dataset.RenderSample(fam, cls, true, r)); name == RouteHard {
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
	if name, _ := RouteOf(img); name != RouteEasy {
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

// TestBatchCoalescing: a worker takes what is queued, up to MaxBatch, in one
// go. The route's only worker is held at a gate by a primer until the rest
// of the burst (23 requests) is queued behind it; once the gate opens it
// runs the primer alone, then exactly MaxBatch of the queued requests, then
// the 7 left over.
func TestBatchCoalescing(t *testing.T) {
	gate := make(gateFault)
	e := testEngine(t, Config{MaxBatch: 16, Workers: 1, Fault: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before Close, should the test stop early
	const n = 24
	images := stubbornEasyImages(t, 0, n, nil) // one route, one worker
	results := make(chan Result, n)
	submit := func(i int) {
		go func() {
			res, err := e.Submit(context.Background(), Request{Pixels: images[i]})
			if err != nil {
				t.Error(err)
			}
			results <- res
		}()
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %+v", what, e.Stats())
			}
		}
	}
	submit(0)
	waitFor("the primer never reached the worker", func() bool {
		return e.Stats().Submitted == 1 && len(e.easy.queue) == 0
	})
	for i := 1; i < n; i++ {
		submit(i)
	}
	waitFor("the burst never queued", func() bool { return len(e.easy.queue) == n-1 })
	release() // the primer and everything queued behind it
	sizes := map[int]int{}
	for i := 0; i < n; i++ {
		sizes[(<-results).BatchSize]++
	}
	if want := map[int]int{1: 1, 16: 16, 7: 7}; !maps.Equal(sizes, want) {
		t.Fatalf("requests by batch size %v, want %v: the primer alone, then MaxBatch, then the rest", sizes, want)
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
