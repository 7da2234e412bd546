package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/compress"
	"cbnet/internal/device"
	"cbnet/internal/models"
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

// TestVariantRouteServesAndMatchesForward pins the tentpole contract: a
// compression-family network registered as a variant route serves real
// traffic when the ladder pins to it, and its compiled answers agree with
// the network's own Forward pass.
func TestVariantRouteServesAndMatchesForward(t *testing.T) {
	v := subflowVariant(t)
	e := testEngine(t, Config{
		Workers:  1,
		Variants: []Variant{v},
		Degrade: DegradeConfig{
			Enabled: true,
			// A long interval keeps the controller from moving the level
			// under the test's feet; transitions come from SetDegradeLevel.
			Interval: time.Hour,
			Ladder: []DegradeRung{
				{Name: "full"},
				{Name: "sub", Route: v.Name},
				{Name: "shed", Shed: true},
			},
		},
	})

	img := hardImage(21)
	// Level 1 pins every request to the variant.
	e.SetDegradeLevel(1)
	res, err := e.Submit(context.Background(), Request{Pixels: img})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != string(v.Name) {
		t.Fatalf("route %q, want %q at degrade level 1", res.Route, v.Name)
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

	// Level 2 sheds outright, with its own counter.
	e.SetDegradeLevel(2)
	if _, err := e.Submit(context.Background(), Request{Pixels: img}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed rung err = %v, want ErrOverloaded", err)
	}
	if got := e.Stats().Shed; got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}

	// Back to level 0: normal routing resumes and /stats sees the ladder.
	e.SetDegradeLevel(0)
	res, err = e.Submit(context.Background(), Request{Pixels: img})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != string(RouteEasy) && res.Route != string(RouteHard) {
		t.Fatalf("route %q after relax, want normal routing", res.Route)
	}
	s := e.Stats()
	if s.Degrade == nil || len(s.Degrade.Levels) != 3 || s.Degrade.Transitions < 3 {
		t.Fatalf("degrade snapshot %+v, want 3 levels and >=3 transitions", s.Degrade)
	}
	if s.Degrade.Levels[1].Images == 0 {
		t.Fatal("no admissions attributed to the pinned rung")
	}
}

// TestDegradeControllerEscalatesAndRelaxes drives the hysteresis state
// machine with an injected burn signal: the level must climb to the
// deepest SERVING rung while the signal burns — burn evidence never
// justifies shedding, because shed 503s feed the burn signal and would pin
// the ladder down (see degradeLoop) — and walk back to 0 when it clears,
// with every transition observed in order.
func TestDegradeControllerEscalatesAndRelaxes(t *testing.T) {
	e := testEngine(t, Config{
		Workers: 1,
		Degrade: DegradeConfig{
			Enabled:       true,
			Interval:      2 * time.Millisecond,
			EscalateTicks: 2,
			RelaxTicks:    3,
			Ladder: []DegradeRung{
				{Name: "full"},
				{Name: "exit", Route: RouteEasy},
				{Name: "exit-pinned", Route: RouteEasy},
				{Name: "shed", Shed: true},
			},
		},
	})
	var burning atomic.Bool
	e.SetDegradeBurnSignal(func() float64 {
		if burning.Load() {
			return 100
		}
		return 0
	})
	var mu sync.Mutex
	var seen []DegradeTransition
	e.OnDegrade(func(tr DegradeTransition) {
		mu.Lock()
		seen = append(seen, tr)
		mu.Unlock()
	})

	waitLevel := func(want int) {
		t.Helper()
		for start := time.Now(); e.DegradeLevel() != want; {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("level stuck at %d, want %d", e.DegradeLevel(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	burning.Store(true)
	waitLevel(2) // deepest serving rung: full → exit → exit-pinned
	// Burn alone must never push into the shed rung, no matter how long it
	// stays hot: give the controller ~25 more ticks to get it wrong.
	time.Sleep(50 * time.Millisecond)
	if lvl := e.DegradeLevel(); lvl != 2 {
		t.Fatalf("burn signal drove level to %d; shedding requires queue pressure", lvl)
	}
	burning.Store(false)
	waitLevel(0)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 4 {
		t.Fatalf("saw %d transitions %+v, want 4 (0→1→2→1→0)", len(seen), seen)
	}
	wantLevels := [][2]int{{0, 1}, {1, 2}, {2, 1}, {1, 0}}
	for i, tr := range seen {
		if tr.From != wantLevels[i][0] || tr.To != wantLevels[i][1] {
			t.Fatalf("transition %d = %d→%d (%s), want %d→%d", i, tr.From, tr.To, tr.Reason, wantLevels[i][0], wantLevels[i][1])
		}
	}
	if seen[0].Reason == "" || !strings.Contains(seen[0].Reason, "burn") {
		t.Errorf("escalation reason %q should name the burn signal", seen[0].Reason)
	}

	var sb strings.Builder
	if err := e.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cbnet_degrade_level 0",
		"cbnet_degrade_transitions_total 4",
		`cbnet_degrade_routed_images_total{level="0-full"}`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShedRungRelaxesDespiteBurn reproduces the feedback loop the
// controller must break: shedding answers 503, 503s torch the SLO burn
// signal, and a controller that trusts burn for relaxation would sit at
// the shed rung until the multi-minute window forgave the errors it
// caused itself. With queues empty, the shed rung must relax on queue
// evidence alone — and then hold at the cheapest serving rung while the
// burn signal stays hot.
func TestShedRungRelaxesDespiteBurn(t *testing.T) {
	e := testEngine(t, Config{
		Workers: 1,
		Degrade: DegradeConfig{
			Enabled:       true,
			Interval:      2 * time.Millisecond,
			EscalateTicks: 2,
			RelaxTicks:    3,
		},
	})
	e.SetDegradeBurnSignal(func() float64 { return 1000 }) // availability trashed by the shed itself
	e.SetDegradeLevel(2)                                   // default ladder: full → exit → shed

	for start := time.Now(); e.DegradeLevel() != 1; {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("shed rung never relaxed (level %d) — burn signal pinned the ladder", e.DegradeLevel())
		}
		time.Sleep(time.Millisecond)
	}
	// ~25 controller ticks at the exit rung: the hot burn signal must hold
	// the ladder there — no relax to full, no re-escalation to shed.
	time.Sleep(50 * time.Millisecond)
	if lvl := e.DegradeLevel(); lvl != 1 {
		t.Fatalf("level %d after settling, want 1 (burn holds the cheapest serving rung)", lvl)
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
	e, gate := gateEngine(t, Config{MaxBatch: 1, MaxWait: time.Hour, Workers: 1, QueueDepth: 8})

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

// TestShutdownDrainDuringDegradeTransitions closes the engine while the
// controller is flapping between levels and workers are wedged, asserting
// every caller is answered (race-clean; no hung goroutines).
func TestShutdownDrainDuringDegradeTransitions(t *testing.T) {
	// Gate every route so admitted requests pile up.
	gate := make(gateFault)
	e := New(testPipeline(), Config{
		MaxBatch: 4, MaxWait: time.Hour, Workers: 1, QueueDepth: 64,
		Fault: gate,
		Degrade: DegradeConfig{
			Enabled:       true,
			Interval:      time.Millisecond,
			EscalateTicks: 1,
			RelaxTicks:    1,
		},
	})
	// Flapping burn signal: the controller crosses levels continuously
	// while requests are in flight.
	var flip atomic.Int64
	e.SetDegradeBurnSignal(func() float64 {
		if flip.Add(1)%2 == 0 {
			return 100
		}
		return 0
	})

	const n = 24
	var wg sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Pixels: hardImage(uint64(i))})
			switch {
			case err == nil, errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
				answered.Add(1)
			default:
				t.Errorf("unexpected drain outcome: %v", err)
			}
		}(i)
	}
	// Let some requests land and the controller move, then shut down
	// concurrently with the flapping.
	time.Sleep(20 * time.Millisecond)
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
		t.Fatal("Close hung during degrade transitions")
	}
	wg.Wait()
	if answered.Load() != n {
		t.Fatalf("%d/%d callers answered across shutdown", answered.Load(), n)
	}
}

// TestRetryAfterJitterBounds: queue-derived waits above the floor must
// stay within ±10% of the modelled wait (plus the ceil), across many
// draws.
func TestRetryAfterJitterBounds(t *testing.T) {
	e := testEngine(t, Config{Workers: 1})
	for i := 0; i < 1000; i++ {
		j := e.jitter()
		if j < 0 || j >= 1 {
			t.Fatalf("jitter draw %v outside [0,1)", j)
		}
	}
	// Jittering a wait w yields w*[0.9,1.1): ceil keeps it within
	// [ceil(0.9w), ceil(1.1w)].
	const w = 10.0
	lo, hi := math.Ceil(0.9*w), math.Ceil(1.1*w)
	for i := 0; i < 100; i++ {
		jittered := w * (0.9 + 0.2*e.jitter())
		if jittered < 0.9*w || jittered >= 1.1*w {
			t.Fatalf("jittered wait %v outside ±10%% of %v", jittered, w)
		}
		if c := math.Ceil(jittered); c < lo || c > hi {
			t.Fatalf("ceil(jittered) %v outside [%v,%v]", c, lo, hi)
		}
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
