package engine

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/resilience"
)

// poisonPixel is the bit-exact pixel value the chaos injector treats as a
// poison pill in these tests.
const poisonPixel = float32(0.77777)

// stubbornHardImage returns an image that actually scores hard under the
// default threshold — hardImage renders degraded inputs whose scores
// *centre* above it, but individual seeds can fall below, and the breaker
// tests need requests that deterministically pick the hard route.
func stubbornHardImage(t *testing.T, seed uint64) []float32 {
	t.Helper()
	for s := seed; s < seed+1000; s++ {
		img := hardImage(s)
		if name, _ := RouteOf(img); name == RouteHard {
			return img
		}
	}
	t.Fatal("no hard-scoring image in 1000 seeds")
	return nil
}

// stubbornEasyImages is stubbornHardImage's mirror: n clean renders from
// distinct seeds, scanning up from seed, that score easy once mark (if not
// nil) has edited them — so that a test can keep a whole batch on the easy
// route.
func stubbornEasyImages(t testing.TB, seed uint64, n int, mark func([]float32)) [][]float32 {
	t.Helper()
	var out [][]float32
	for s := seed; len(out) < n && s < seed+uint64(n)+1000; s++ {
		img := easyImage(s)
		if mark != nil {
			mark(img)
		}
		if name, _ := RouteOf(img); name == RouteEasy {
			out = append(out, img)
		}
	}
	if len(out) < n {
		t.Fatalf("%d of %d easy-scoring images in %d seeds", len(out), n, n+1000)
	}
	return out
}

// poisonedImage returns the first clean render from seed up whose first
// pixel carries the poison value and that still scores easy.
func poisonedImage(t testing.TB, seed uint64) []float32 {
	t.Helper()
	return stubbornEasyImages(t, seed, 1, func(img []float32) { img[0] = poisonPixel })[0]
}

// wedgeAndCoalesce submits a primer request to occupy the single worker
// for the injector's latency, then fires the given images concurrently so
// they coalesce into one batch behind it, returning each submit's error.
func wedgeAndCoalesce(t *testing.T, e *Engine, images [][]float32) []error {
	t.Helper()
	go e.Submit(context.Background(), Request{Pixels: stubbornEasyImages(t, 999, 1, nil)[0]})
	// The idle engine dispatches the primer immediately; by the time it
	// sleeps in the injector the queue is free for the real batch.
	time.Sleep(3 * time.Millisecond)
	errs := make([]error, len(images))
	var wg sync.WaitGroup
	for i, img := range images {
		wg.Add(1)
		go func(i int, img []float32) {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Pixels: img})
			errs[i] = err
		}(i, img)
	}
	wg.Wait()
	return errs
}

// TestBisectIsolatesPoison is the tentpole's core contract: one poisoned
// input in a 16-request batch fails alone, its 15 co-batched innocents
// are served via bisection, and the culprit's fingerprint is quarantined
// so resubmitting it is rejected at admission with ErrPoisoned.
func TestBisectIsolatesPoison(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetLatency("", 10*time.Millisecond)
	inj.SetPoisonValue(poisonPixel)
	e := testEngine(t, Config{
		MaxBatch: 16, Workers: 1,
		Fault: inj,
	})

	// Every image scores easy, so the whole batch lands on one route.
	images := stubbornEasyImages(t, 0, 16, nil)
	images[5] = poisonedImage(t, 1)
	errs := wedgeAndCoalesce(t, e, images)

	for i, err := range errs {
		if i == 5 {
			if !errors.Is(err, ErrInferFailed) {
				t.Fatalf("poisoned request: err = %v, want ErrInferFailed", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("innocent request %d failed: %v", i, err)
		}
	}

	// The convicted fingerprint is rejected at admission from now on.
	if _, err := e.Submit(context.Background(), Request{Pixels: poisonedImage(t, 1)}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("resubmitted poison: err = %v, want ErrPoisoned", err)
	}

	s := e.Resilience()
	if s.Culprits != 1 || s.QuarantineSize != 1 {
		t.Fatalf("culprits=%d quarantineSize=%d, want 1/1", s.Culprits, s.QuarantineSize)
	}
	if s.BisectSaved < 15 {
		t.Fatalf("bisectSaved = %d, want >= 15", s.BisectSaved)
	}
	if s.Poisoned != 1 || s.QuarantineHits != 1 {
		t.Fatalf("poisoned=%d hits=%d, want 1/1", s.Poisoned, s.QuarantineHits)
	}
	if s.BisectRuns < 1 || s.BisectRuns > 8 {
		t.Fatalf("bisectRuns = %d, want 1..8: one pill costs two re-runs a level, four levels in 16", s.BisectRuns)
	}
	// Served halves and the convicted singleton each left the gauge once.
	requireIdleGauges(t, e)
}

// handBatch gives a worker one batch of exactly these images, as if it had
// pulled them from the queue, and returns each request's error once all are
// answered: the fault-isolation tests below are about what a batch of a given
// size and composition does, which coalescing by timing cannot pin.
func handBatch(e *Engine, rt *route, w *worker, images [][]float32) []error {
	batch := make([]*request, len(images))
	for i, img := range images {
		batch[i] = &request{id: e.IssueRequestID(), pixels: img, done: make(chan outcome, 1)}
	}
	rt.stats.inflight.Add(int64(len(batch)))
	e.runBatch(rt, batch, w)
	errs := make([]error, len(batch))
	for i, r := range batch {
		errs[i] = (<-r.done).err
	}
	return errs
}

// easyBreaker is the easy route's breaker as /stats shows it.
func easyBreaker(t *testing.T, e *Engine) BreakerSnapshot {
	t.Helper()
	for _, b := range e.Resilience().Breakers {
		if b.Route == string(RouteEasy) {
			return b
		}
	}
	t.Fatal("no breaker for the easy route")
	return BreakerSnapshot{}
}

// TestPillOnAColdRouteLeavesTheBreakerClosed: a route that has served one
// batch gets a full batch holding one poison pill. Bisection re-runs up to
// 2⌈log₂ n⌉ sub-batches to find it and about half of them fail; when each
// re-run was a sample in the breaker's window, that alone reached the default
// MinSamples at a failure rate of one half and opened the breaker — one bad
// input took the route out of service for a cooldown. The breaker hears one
// verdict for the batch, and it is ok: the route served the innocents.
func TestPillOnAColdRouteLeavesTheBreakerClosed(t *testing.T) {
	for _, n := range []int{16, 32} {
		for _, at := range []int{0, n / 2, n - 1} {
			inj := chaos.NewInjector()
			inj.SetPoisonValue(poisonPixel)
			e := testEngine(t, Config{MaxBatch: n, Workers: 1, Fault: inj})
			w := e.newWorker(e.easy)
			if errs := handBatch(e, e.easy, w, [][]float32{easyImage(999)}); errs[0] != nil {
				t.Fatal(errs[0])
			}
			images := make([][]float32, n)
			for i := range images {
				images[i] = easyImage(uint64(i))
			}
			images[at] = poisonedImage(t, uint64(n))
			for i, err := range handBatch(e, e.easy, w, images) {
				if i == at && !errors.Is(err, ErrInferFailed) {
					t.Fatalf("batch %d, pill at %d: pill err = %v, want ErrInferFailed", n, at, err)
				}
				if i != at && err != nil {
					t.Fatalf("batch %d, pill at %d: innocent %d failed: %v", n, at, i, err)
				}
			}
			b := easyBreaker(t, e)
			if b.State != "closed" || b.Transitions != 0 {
				t.Fatalf("batch %d, pill at %d: breaker %s after %d transitions, want closed and 0: a bad input is not a bad route",
					n, at, b.State, b.Transitions)
			}
			if b.WindowSamples != 2 || b.WindowFailures != 0 {
				t.Fatalf("batch %d, pill at %d: breaker window %d samples / %d failures, want 2 / 0 (two batches, both served)",
					n, at, b.WindowSamples, b.WindowFailures)
			}
			if _, err := e.Submit(context.Background(), Request{Pixels: images[at]}); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("batch %d, pill at %d: resubmitted pill err = %v, want ErrPoisoned", n, at, err)
			}
			requireIdleGauges(t, e)
		}
	}
}

// TestBisectConvictsAtAnyBatchSize: bisection reaches a singleton whatever
// MaxBatch is. A depth cap sized for 64 left the pill in a 128-batch paired
// with a neighbour: both failed and neither was convicted.
func TestBisectConvictsAtAnyBatchSize(t *testing.T) {
	const n, at = 128, 77
	inj := chaos.NewInjector()
	inj.SetPoisonValue(poisonPixel)
	e := testEngine(t, Config{MaxBatch: n, Workers: 1, Fault: inj})
	images := make([][]float32, n)
	for i := range images {
		images[i] = easyImage(uint64(i))
	}
	images[at] = poisonedImage(t, n)
	failed := 0
	for i, err := range handBatch(e, e.easy, e.newWorker(e.easy), images) {
		if err != nil {
			failed++
		}
		if i == at && !errors.Is(err, ErrInferFailed) {
			t.Fatalf("pill err = %v, want ErrInferFailed", err)
		}
	}
	s := e.Resilience()
	if failed != 1 || s.Culprits != 1 || s.QuarantineSize != 1 {
		t.Fatalf("%d of %d failed, %d culprits, %d quarantined; want 1, 1, 1", failed, n, s.Culprits, s.QuarantineSize)
	}
	if s.BisectRuns > 14 {
		t.Fatalf("bisectRuns = %d, want at most 2⌈log₂ 128⌉ = 14", s.BisectRuns)
	}
}

// TestRouteFaultBoundsBisect wedges the route (every forward pass fails):
// bisection descends to the first singleton, tries its sibling, and with
// nothing served after ⌈log₂ n⌉ + 1 re-runs fails the rest as a group instead
// of re-running a broken route 2n − 2 times. Nobody is convicted on that
// evidence, and the breaker counts batches: one failure for each.
func TestRouteFaultBoundsBisect(t *testing.T) {
	const n, batches = 8, 3
	inj := chaos.NewInjector()
	inj.SetStuck("*")
	e := testEngine(t, Config{MaxBatch: n, Workers: 1, Fault: inj})
	w := e.newWorker(e.easy)
	images := make([][]float32, n)
	for i := range images {
		images[i] = easyImage(uint64(i))
	}
	for b := 1; b <= batches; b++ {
		for i, err := range handBatch(e, e.easy, w, images) {
			if !errors.Is(err, ErrInferFailed) {
				t.Fatalf("request %d on a stuck route: err = %v, want ErrInferFailed", i, err)
			}
		}
		s := e.Resilience()
		if s.BisectRuns > int64(4*b) {
			t.Fatalf("bisectRuns = %d after %d stuck batches of %d, want at most ⌈log₂ 8⌉ + 1 = 4 each", s.BisectRuns, b, n)
		}
		if s.BisectSaved != 0 || s.Culprits != 0 || s.QuarantineSize != 0 {
			t.Fatalf("saved=%d culprits=%d quarantineSize=%d on a stuck route, want 0/0/0", s.BisectSaved, s.Culprits, s.QuarantineSize)
		}
		if br := easyBreaker(t, e); br.WindowSamples != int64(b) || br.WindowFailures != int64(b) {
			t.Fatalf("breaker window %d samples / %d failures after %d failed batches, want one failure a batch",
				br.WindowSamples, br.WindowFailures, b)
		}
	}
	requireIdleGauges(t, e)
}

// TestBreakerDivertsAndRecovers sticks the hard route, drives hard-scoring
// traffic until its breaker trips, and asserts (a) tripped traffic is
// diverted to the easy route instead of failing, and (b) once the route
// heals, half-open probes close the breaker and traffic returns.
func TestBreakerDivertsAndRecovers(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetStuck(string(RouteHard))
	var mu sync.Mutex
	var edges []string
	e := testEngine(t, Config{
		MaxBatch: 4, Workers: 1,
		Fault: inj,
		Resilience: ResilienceConfig{
			Breaker: resilience.BreakerConfig{
				Window: 4, MinSamples: 2,
				Cooldown: 30 * time.Millisecond, Probes: 1,
			},
		},
	})
	e.OnBreaker(func(tr BreakerTransition) {
		mu.Lock()
		edges = append(edges, string(tr.Route)+":"+tr.From.String()+"->"+tr.To.String())
		mu.Unlock()
	})

	// Two singleton failures trip the hard breaker.
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, uint64(i))}); !errors.Is(err, ErrInferFailed) {
			t.Fatalf("stuck hard submit %d: err = %v, want ErrInferFailed", i, err)
		}
	}
	if !e.BreakerOpen(RouteHard) {
		t.Fatal("hard breaker did not open after repeated failures")
	}

	// Tripped: hard-scoring traffic diverts to easy and is served.
	res, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, 42)})
	if err != nil {
		t.Fatalf("divert submit failed: %v", err)
	}
	if res.Route != string(RouteEasy) {
		t.Fatalf("divert route = %q, want easy", res.Route)
	}
	if s := e.Stats(); s.Diverted == 0 {
		t.Fatal("diverted counter never moved")
	}

	// Requests that need the converted image never divert: they ride the
	// (broken) hard route and fail honestly.
	if _, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, 43), IncludeConverted: true}); !errors.Is(err, ErrInferFailed) {
		t.Fatalf("wantConverted on open breaker: err = %v, want ErrInferFailed", err)
	}

	// Heal the route; after the cooldown a probe closes the breaker.
	inj.SetStuck("")
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		res, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, 7)})
		if err == nil && res.Route == string(RouteHard) && !e.BreakerOpen(RouteHard) {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("hard route never recovered after healing")
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(edges, ",")
	for _, want := range []string{
		"hard:closed->open", "hard:open->half-open", "hard:half-open->closed",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("breaker edges %q missing %q", joined, want)
		}
	}
}

// TestOpenBreakerHealsWithoutALadderRule: with the ladder armed and the
// hard route stuck, hard's breaker opens and hard-preferring traffic is
// answered by easy; once the route heals, the traffic that still prefers it
// is what probes it — open → half-open → closed — with no controller in the
// process to re-expose it: the only goroutines the engine ever starts are
// its workers.
func TestOpenBreakerHealsWithoutALadderRule(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := chaos.NewInjector()
	inj.SetStuck(string(RouteHard))
	e := testEngine(t, Config{
		MaxBatch: 4, Workers: 1,
		Fault: inj,
		Resilience: ResilienceConfig{
			Breaker: resilience.BreakerConfig{
				Window: 4, MinSamples: 2,
				Cooldown: 20 * time.Millisecond, Probes: 1,
			},
		},
	})
	// One worker on each of easy and hard.
	if got := runtime.NumGoroutine() - before; got > 2 {
		t.Fatalf("New started %d goroutines, want at most 2 routes × 1 worker", got)
	}
	var mu sync.Mutex
	var edges []string
	e.OnBreaker(func(tr BreakerTransition) {
		mu.Lock()
		edges = append(edges, string(tr.Route)+":"+tr.From.String()+"->"+tr.To.String())
		mu.Unlock()
	})

	for i := 0; i < 2; i++ {
		e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, uint64(i))})
	}
	if !e.BreakerOpen(RouteHard) {
		t.Fatal("hard breaker did not open")
	}
	// While it is open (or probing and failing) nobody is refused: whatever
	// hard's breaker does not admit, easy answers.
	for i := 0; i < 20; i++ {
		res, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, 50)})
		if err == nil && res.Route != string(RouteEasy) {
			t.Fatalf("served by %q with hard stuck, want easy", res.Route)
		}
		if err != nil && !errors.Is(err, ErrInferFailed) {
			t.Fatalf("hard stuck: err = %v, want an answer from easy or a failed probe", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if e.Shedding() {
		t.Fatal("Shedding() with empty queues: an open breaker is not a full ladder")
	}

	inj.SetStuck("")
	healed := false
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		res, err := e.Submit(context.Background(), Request{Pixels: stubbornHardImage(t, 9)})
		if err == nil && res.Route == string(RouteHard) && !e.BreakerOpen(RouteHard) {
			healed = true
			break
		}
	}
	if !healed {
		t.Fatalf("hard never healed: breakerOpen=%v", e.BreakerOpen(RouteHard))
	}
	mu.Lock()
	defer mu.Unlock()
	joined := strings.Join(edges, ",")
	for _, want := range []string{"hard:closed->open", "hard:open->half-open", "hard:half-open->closed"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("breaker edges %q missing %q", joined, want)
		}
	}
}

// TestRunBatchZeroAllocResilience re-pins the steady-state zero-alloc
// contract at one proc (testing.AllocsPerRun pins GOMAXPROCS to 1;
// TestRunBatchZeroAlloc counts at two or more): the batch's verdict to the
// route's breaker must stay off the heap.
func TestRunBatchZeroAllocResilience(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	const n = 16
	e := New(testPipeline(), Config{MaxBatch: n, Workers: 1})
	defer e.Close()

	w := e.newWorker(e.hard)
	batch := make([]*request, n)
	for i := range batch {
		batch[i] = &request{id: uint64(i), pixels: hardImage(uint64(i)), done: make(chan outcome, 1)}
	}
	run := func() {
		e.runBatch(e.hard, batch, w)
		for _, r := range batch {
			<-r.done
		}
	}
	run()
	run()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
		t.Errorf("resilience-armed runBatch: %v allocs per warm batch, want 0", allocs)
	}
}

// BenchmarkBisectOverhead measures the failure-isolation worst case end to
// end: a 16-request coalesced batch carrying one never-seen-before poison
// pill panics, and bisection re-runs sub-batches until the 15 innocents
// are served and the pill is convicted. The injected 5ms batch latency
// wedges the worker so the round coalesces (and dominates the result, which
// keeps it stable).
func BenchmarkBisectOverhead(b *testing.B) {
	const poisonVal = float32(0.55555)
	inj := chaos.NewInjector()
	inj.SetLatency("", 5*time.Millisecond)
	inj.SetPoisonValue(poisonVal)
	e := New(testPipeline(), Config{
		MaxBatch: 32, Workers: 1, QueueDepth: 256,
		Fault: inj,
	})
	defer e.Close()

	// Innocents and pill all score easy: one route, the whole round coalesces.
	imgs := stubbornEasyImages(b, 0, 15, nil)
	pill := stubbornEasyImages(b, 35, 1, func(img []float32) { img[0] = poisonVal })[0]
	ctx := context.Background()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh fingerprint each round, so the pill is bisected and
		// convicted again instead of being rejected at admission.
		pill[1] = float32(i%997) / 997
		pill[2] = float32(i/997%997) / 997
		go e.Submit(ctx, Request{Pixels: imgs[0]}) // wedge the worker
		time.Sleep(2 * time.Millisecond)
		var wg sync.WaitGroup
		for _, img := range imgs {
			wg.Add(1)
			go func(img []float32) {
				defer wg.Done()
				_, _ = e.Submit(ctx, Request{Pixels: img})
			}(img)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.Submit(ctx, Request{Pixels: pill})
		}()
		wg.Wait()
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(e.Resilience().BisectSaved)/float64(b.N), "saved/op")
	}
}
