package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/compress"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/resilience"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// subflowVariant compiles a SubFlow family member over a fresh LeNet as a
// registered variant route.
func subflowVariant(t *testing.T) Variant {
	t.Helper()
	sub, err := compress.NewSubFlow(models.NewLeNet(rng.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	net, err := sub.NetworkAt(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return Variant{Name: "subflow-0.5", Net: net}
}

// openBreaker sticks the named route and submits hard-preferring requests
// until its breaker opens; the routes before it on the ladder must already
// refuse, so the failures land on it. The tests arm a 2-sample window.
func openBreaker(t *testing.T, e *Engine, inj *chaos.Injector, name RouteName) {
	t.Helper()
	inj.SetStuck(string(name))
	for i := uint64(0); !e.BreakerOpen(name); i++ {
		if i == 10 {
			t.Fatalf("%s breaker still closed after %d stuck requests", name, i)
		}
		if _, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, i)}); !errors.Is(err, ErrInferFailed) {
			t.Fatalf("stuck %s submit: err = %v, want ErrInferFailed", name, err)
		}
	}
	inj.SetStuck("")
}

// TestVariantRouteServesAndMatchesForward: a compression-family network
// registered as a variant route serves real traffic once the routes before
// it on the ladder refuse, and its compiled answers agree with the network's
// own Forward pass. When the variant refuses too the request is shed, with
// its own counter.
func TestVariantRouteServesAndMatchesForward(t *testing.T) {
	v := subflowVariant(t)
	inj := chaos.NewInjector()
	e := testEngine(t, Config{
		Workers:  1,
		Variants: []Variant{v},
		Fault:    inj,
		Degrade:  DegradeConfig{Enabled: true},
		Resilience: ResilienceConfig{
			Enabled: true,
			// Two failures open a breaker and nothing in the test's lifetime
			// closes it again.
			Breaker: resilience.BreakerConfig{Window: 2, MinSamples: 2, Cooldown: time.Hour},
		},
	})
	openBreaker(t, e, inj, RouteHard)
	openBreaker(t, e, inj, RouteEasy)

	img := stubbornHardImage(t, 21)
	res, err := e.Submit(context.Background(), Request{Pixels: img})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != string(v.Name) {
		t.Fatalf("route %q, want %q with hard and easy refusing", res.Route, v.Name)
	}
	x := tensor.FromSlice(append([]float32(nil), img...), 1, len(img))
	logits := v.Net.Forward(x, false)
	want := 0
	for j, l := range logits.Data {
		if l > logits.Data[want] {
			want = j
		}
	}
	if res.Class != want {
		t.Fatalf("variant route class %d, Forward argmax %d", res.Class, want)
	}

	openBreaker(t, e, inj, v.Name)
	if _, err := e.Submit(context.Background(), Request{Pixels: img}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("every route refusing: err = %v, want ErrOverloaded", err)
	}
	s := e.Stats()
	if s.Shed != 1 || s.Rejected != 0 {
		t.Fatalf("shed %d rejected %d, want 1/0: a request no route takes is shed, not rejected", s.Shed, s.Rejected)
	}
	// Two requests failed on easy; one was served by the variant and one
	// failed there (half of a 2-sample window): four answers from a route
	// the request did not prefer.
	if s.Diverted != 4 {
		t.Fatalf("diverted %d, want 4", s.Diverted)
	}
	if got := strings.Join(s.Ladder, " "); got != "hard easy "+string(v.Name) {
		t.Fatalf("stats ladder %q, want the walk order hard easy %s", got, v.Name)
	}
}

// TestWorkerPanicRecovery injects panics and errors through the fault
// hook: affected batches fail with ErrInferFailed, the workers survive,
// and traffic succeeds again once the fault clears.
func TestWorkerPanicRecovery(t *testing.T) {
	inj := chaos.NewInjector()
	e := testEngine(t, Config{Workers: 1, DisableRouting: true, Fault: inj})

	inj.SetPanicEvery(1)
	if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(1)}); !errors.Is(err, ErrInferFailed) {
		t.Fatalf("panicking infer err = %v, want ErrInferFailed", err)
	}
	inj.SetPanicEvery(0)
	inj.SetErrorEvery(1)
	if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(2)}); !errors.Is(err, ErrInferFailed) {
		t.Fatalf("erroring infer err = %v, want ErrInferFailed", err)
	}
	inj.SetErrorEvery(0)
	if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(3)}); err != nil {
		t.Fatalf("worker did not survive injected faults: %v", err)
	}
	s := e.Stats()
	if s.InferFailed != 2 {
		t.Fatalf("inferFailed %d, want 2", s.InferFailed)
	}
	if s.Completed == 0 {
		t.Fatal("no completions after faults cleared")
	}
	if inj.InjectedPanics() != 1 || inj.InjectedErrors() != 1 {
		t.Fatalf("injector counted %d panics / %d errors, want 1/1", inj.InjectedPanics(), inj.InjectedErrors())
	}
}

// TestDeadlineAdmissionAndFormation covers both shedding points: a
// request that arrives already expired is refused at admission with
// ErrDeadline and never counted as submitted; a request whose deadline
// expires while queued behind a wedged worker is shed at batch formation
// without consuming a worker slot.
func TestDeadlineAdmissionAndFormation(t *testing.T) {
	e, gate := gateEngine(t, Config{MaxBatch: 1, Workers: 1, QueueDepth: 8})

	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := e.Submit(expired, Request{Pixels: hardImage(1)}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("pre-expired submit err = %v, want ErrDeadline", err)
	}
	if s := e.Stats(); s.DeadlineExpired != 1 || s.Submitted != 0 {
		t.Fatalf("admission shed: expired=%d submitted=%d, want 1/0", s.DeadlineExpired, s.Submitted)
	}

	// Wedge every worker (DisableRouting folds the easy budget in, so
	// Workers=1 becomes two hard-route workers) with long-lived requests,
	// then queue a short-deadline one behind them.
	wedged := e.Config().Workers
	var wg sync.WaitGroup
	for i := 0; i < wedged; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(uint64(2 + i))}); err != nil {
				t.Errorf("wedged request failed: %v", err)
			}
		}(i)
	}
	for start := time.Now(); e.Stats().Submitted < int64(wedged); {
		if time.Since(start) > 10*time.Second {
			t.Fatal("wedge requests never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the batcher time to hand each wedge batch to a worker, so the
	// short-deadline request below cannot race onto a parked worker.
	time.Sleep(20 * time.Millisecond)
	shortCtx, cancelShort := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelShort()
	if _, err := e.Submit(shortCtx, Request{Pixels: hardImage(3)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned caller err = %v, want context.DeadlineExceeded", err)
	}

	close(gate)
	wg.Wait()
	// The stale queue entry must be shed at formation, not executed.
	for start := time.Now(); e.Stats().DeadlineExpired < 2; {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("formation shed never happened: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	s := e.Stats()
	if s.Completed != int64(wedged) {
		t.Fatalf("completed %d, want %d (only the wedged requests may execute)", s.Completed, wedged)
	}
	var images int64
	for _, r := range s.Routes {
		images += r.Images
	}
	if images != int64(wedged) {
		t.Fatalf("route images %d, want %d: the expired request must not reach a worker", images, wedged)
	}
}

// TestShutdownDrainWhileSpilling closes the engine while a
// crowd is spilling from route to route behind wedged workers, asserting
// every caller is answered (race-clean; no hung goroutines).
func TestShutdownDrainWhileSpilling(t *testing.T) {
	// Gate every route so admitted requests pile up: hard fills to its
	// mark, the overflow lands on easy, and once easy is at its mark too
	// the rest is shed.
	gate := make(gateFault)
	e := New(testPipeline(), Config{
		MaxBatch: 4, Workers: 1, QueueDepth: 8,
		Fault:   gate,
		Degrade: DegradeConfig{Enabled: true},
	})

	// More callers than two wedged routes can hold at their fullest: four
	// executing, four formed and waiting for the worker, and a queue that
	// racing submitters may fill past its mark of four to its depth of eight.
	const n = 48
	img := stubbornHardImage(t, 0) // the whole crowd prefers hard
	var wg sync.WaitGroup
	var answered, served atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Pixels: img})
			switch {
			case err == nil:
				served.Add(1)
				answered.Add(1)
			case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
				answered.Add(1)
			default:
				t.Errorf("unexpected drain outcome: %v", err)
			}
		}(i)
	}
	// Let the crowd land, then shut down while it is still wedged.
	for start := time.Now(); ; {
		if s := e.Stats(); s.Submitted+s.Shed+s.Rejected == n {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("crowd never landed: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if s := e.Stats(); s.Diverted == 0 || s.Shed == 0 {
		t.Fatalf("diverted %d shed %d: the crowd was meant to spill and then overflow", s.Diverted, s.Shed)
	}
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with requests spread over the ladder")
	}
	wg.Wait()
	if answered.Load() != n {
		t.Fatalf("%d/%d callers answered across shutdown", answered.Load(), n)
	}
	if got, want := served.Load(), e.Stats().Submitted; got != want {
		t.Fatalf("%d served, %d admitted: Close must drain every admitted request", got, want)
	}
}

// TestRouteCostsPriceEachRouteAsItsOwnNetwork: the engine reports one cost
// per live route — the classifier for easy, AE + classifier for hard, a
// variant's own network for the variant — and only the hard route when
// routing is disabled.
func TestRouteCostsPriceEachRouteAsItsOwnNetwork(t *testing.T) {
	v := subflowVariant(t)
	e := testEngine(t, Config{Workers: 1, Variants: []Variant{v}})
	want := []RouteCost{
		{RouteEasy, e.pipe.DirectCost()},
		{RouteHard, e.pipe.Cost()},
		{v.Name, device.SequentialCost(v.Net)},
	}
	got := e.RouteCosts()
	if len(got) != len(want) {
		t.Fatalf("%d route costs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("route cost %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if want[2].Cost == want[0].Cost || want[2].Cost == want[1].Cost {
		t.Fatal("variant costs the same as a built-in route: the test distinguishes nothing")
	}

	always := testEngine(t, Config{Workers: 1, DisableRouting: true, Variants: []Variant{v}})
	if got := always.RouteCosts(); len(got) != 1 || got[0] != want[1] {
		t.Errorf("always-convert engine reports %+v, want the hard route alone", got)
	}
}
