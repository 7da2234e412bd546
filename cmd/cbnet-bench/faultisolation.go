package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/resilience"
	"cbnet/internal/rng"
)

// faultPoisonPixel is the bit-exact pixel value the drill arms as a
// content-keyed poison pill.
const faultPoisonPixel = float32(0.66666)

// runFaultIsolation is the chaos experiment behind -exp faultisolation.
// Two drills, each against a fresh engine (every engine arms the layer):
//
// Poison drill — a stream of coalesced micro-batches carries one
// poison-pill input in every Nth batch (bit-identical each time, the way a
// crashing client retries). The first encounter panics its batch; bisection
// must serve ≥99% of the innocents, convict the pill, and quarantine its
// fingerprint so every later encounter is rejected at admission without
// touching a worker — at no more than 2⌈log₂ n⌉ re-runs per poisoned batch,
// and without the route's breaker moving: a bad input is not a bad route.
//
// Breaker drill — the hard route wedges solid. Its circuit breaker must
// trip within the configured sample window, divert hard-scoring traffic to
// the healthy easy route, and once the route heals, walk open → half-open
// → closed through probe requests.
func runFaultIsolation(w io.Writer) error {
	var fail []string
	fail = append(fail, poisonDrill(w)...)
	fail = append(fail, breakerDrill(w)...)
	if len(fail) > 0 {
		for _, f := range fail {
			fmt.Fprintf(w, "  FAIL: %s\n", f)
		}
		return fmt.Errorf("faultisolation: %d assertion(s) failed", len(fail))
	}
	fmt.Fprintln(w, "  PASS: bisection served the innocents, the quarantine held the pill, and the breaker healed itself")
	return nil
}

// faultPipeline builds an untrained pipeline — the drills exercise fault
// paths, not predictions.
func faultPipeline() *core.Pipeline {
	r := rng.New(7)
	b := models.NewBranchyLeNet(r, 0.05)
	return &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, r),
		Classifier: models.ExtractLightweight(b),
	}
}

// faultHardImage scans seeds for a degraded sample that deterministically
// scores hard.
func faultHardImage(seed uint64) ([]float32, error) {
	for s := seed; s < seed+1000; s++ {
		img := dataset.RenderSample(dataset.MNIST, int(s)%dataset.NumClasses, true, rng.New(s))
		if name, _ := engine.RouteOf(img); name == engine.RouteHard {
			return img, nil
		}
	}
	return nil, fmt.Errorf("no hard-scoring image in 1000 seeds")
}

// faultEasyImages is faultHardImage's mirror: n clean renders from distinct
// seeds, scanning up from seed, that score easy once mark (if not nil) has
// edited them.
func faultEasyImages(seed uint64, n int, mark func([]float32)) ([][]float32, error) {
	var out [][]float32
	for s := seed; len(out) < n && s < seed+uint64(n)+1000; s++ {
		img := dataset.RenderSample(dataset.MNIST, int(s)%dataset.NumClasses, false, rng.New(s))
		if mark != nil {
			mark(img)
		}
		if name, _ := engine.RouteOf(img); name == engine.RouteEasy {
			out = append(out, img)
		}
	}
	if len(out) < n {
		return nil, fmt.Errorf("%d of %d easy-scoring images in %d seeds", len(out), n, n+1000)
	}
	return out, nil
}

// poisonDrill throws rounds of coalesced batches at a wedged single-worker
// engine, poisoning every poisonEvery-th round with the same pill.
func poisonDrill(w io.Writer) []string {
	const (
		rounds      = 12
		batchSize   = 15 // innocents per round; the pill rides along every Nth
		poisonEvery = 3
	)

	// Primer, innocents and pill all score easy: one route, one batch per
	// round.
	primer, err := faultEasyImages(1, 1, nil)
	if err != nil {
		return []string{err.Error()}
	}
	innocents, err := faultEasyImages(1001, rounds*batchSize, nil)
	if err != nil {
		return []string{err.Error()}
	}
	pill, err := faultEasyImages(99, 1, func(img []float32) { img[0] = faultPoisonPixel })
	if err != nil {
		return []string{err.Error()}
	}

	inj := chaos.NewInjector()
	inj.SetLatency("", 5*time.Millisecond)
	inj.SetPoisonValue(faultPoisonPixel)
	e := engine.New(faultPipeline(), engine.Config{
		MaxBatch: 32, Workers: 1, Fault: inj,
	})
	defer e.Close()

	snap := e.Resilience()
	var innocentsOffered, innocentsServed, pillFailed, pillRejected, pillOther int
	// A lone pill costs two re-runs a level: its half fails, the sibling is served.
	maxRunsPerRound := int64(2 * bits.Len(uint(batchSize)))
	worstRound := int64(0)
	for round := 0; round < rounds; round++ {
		images := slices.Clone(innocents[round*batchSize : (round+1)*batchSize])
		poisonIdx := -1
		if round%poisonEvery == 0 {
			poisonIdx = len(images) / 2
			images = append(images, nil)
			copy(images[poisonIdx+1:], images[poisonIdx:])
			images[poisonIdx] = pill[0]
		}

		// Wedge the single worker with a primer, then coalesce the round's
		// images into one batch behind it.
		go e.Submit(context.Background(), engine.Request{Pixels: primer[0]})
		time.Sleep(2 * time.Millisecond)
		errs := make([]error, len(images))
		var wg sync.WaitGroup
		for i, img := range images {
			wg.Add(1)
			go func(i int, img []float32) {
				defer wg.Done()
				_, err := e.Submit(context.Background(), engine.Request{Pixels: img})
				errs[i] = err
			}(i, img)
		}
		wg.Wait()
		runsBefore := snap.BisectRuns
		snap = e.Resilience()
		worstRound = max(worstRound, snap.BisectRuns-runsBefore)

		for i, err := range errs {
			if i == poisonIdx {
				switch {
				case errors.Is(err, engine.ErrPoisoned):
					pillRejected++ // stopped at admission: quarantine hit
				case errors.Is(err, engine.ErrInferFailed):
					pillFailed++ // failed in a batch: first encounter(s)
				default:
					pillOther++
				}
				continue
			}
			innocentsOffered++
			if err == nil {
				innocentsServed++
			}
		}
	}

	servedFrac := float64(innocentsServed) / float64(innocentsOffered)
	fmt.Fprintf(w, "faultisolation: poison drill — %d rounds × %d innocents, pill every %d rounds\n",
		rounds, batchSize, poisonEvery)
	fmt.Fprintf(w, "  innocents served %d/%d (%.1f%%)  pill: failed-in-batch %d, rejected-at-admission %d, other %d\n",
		innocentsServed, innocentsOffered, 100*servedFrac, pillFailed, pillRejected, pillOther)
	var breakerMoves uint64
	for _, b := range snap.Breakers {
		breakerMoves += b.Transitions
	}
	fmt.Fprintf(w, "  bisect runs %d (saved %d, worst round %d of ≤%d)  quarantine size %d hits %d  breaker transitions %d\n",
		snap.BisectRuns, snap.BisectSaved, worstRound, maxRunsPerRound, snap.QuarantineSize, snap.QuarantineHits, breakerMoves)

	var fail []string
	if servedFrac < 0.99 {
		fail = append(fail, fmt.Sprintf("poison: only %.1f%% of innocents served, want ≥99%%", 100*servedFrac))
	}
	if pillFailed < 1 {
		fail = append(fail, "poison: the pill never failed in a batch — it was never exercised")
	}
	if pillRejected < 1 {
		fail = append(fail, "poison: the repeat pill was never rejected at admission — quarantine ineffective")
	}
	if pillOther > 0 {
		fail = append(fail, fmt.Sprintf("poison: pill got %d unexpected outcomes", pillOther))
	}
	if snap.Culprits < 1 || snap.QuarantineSize < 1 {
		fail = append(fail, fmt.Sprintf("poison: %d culprits / %d quarantined, want ≥1 each", snap.Culprits, snap.QuarantineSize))
	}
	if worstRound == 0 || worstRound > maxRunsPerRound {
		fail = append(fail, fmt.Sprintf("poison: a round cost %d bisection re-runs, want 1..%d for one pill in %d", worstRound, maxRunsPerRound, batchSize+1))
	}
	if breakerMoves != 0 {
		fail = append(fail, fmt.Sprintf("poison: %d breaker transitions — bad inputs must not open a route's breaker", breakerMoves))
	}
	return fail
}

// breakerDrill wedges the hard route solid, requires the breaker to trip
// and divert, then heals the route and requires open → half-open → closed
// recovery through probes.
func breakerDrill(w io.Writer) []string {
	inj := chaos.NewInjector()
	inj.SetStuck(string(engine.RouteHard))
	e := engine.New(faultPipeline(), engine.Config{
		Workers: 1,
		Fault:   inj,
		Resilience: engine.ResilienceConfig{
			Breaker: resilience.BreakerConfig{
				Window: 4, MinSamples: 2,
				Cooldown: 30 * time.Millisecond, Probes: 1,
			},
		},
	})
	defer e.Close()

	var mu sync.Mutex
	var edges []string
	e.OnBreaker(func(tr engine.BreakerTransition) {
		mu.Lock()
		edges = append(edges, fmt.Sprintf("%s:%s->%s", tr.Route, tr.From, tr.To))
		mu.Unlock()
	})

	hard, err := faultHardImage(1)
	if err != nil {
		return []string{err.Error()}
	}
	var fail []string
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), engine.Request{Pixels: hard}); !errors.Is(err, engine.ErrInferFailed) {
			fail = append(fail, fmt.Sprintf("breaker: stuck hard submit %d: err %v, want ErrInferFailed", i, err))
		}
	}
	if !e.BreakerOpen(engine.RouteHard) {
		fail = append(fail, "breaker: hard breaker still closed after two singleton failures")
	}

	// Diversion: a hard-scoring request is served on the healthy route.
	divImg, err := faultHardImage(2000)
	if err != nil {
		return append(fail, err.Error())
	}
	res, err := e.Submit(context.Background(), engine.Request{Pixels: divImg})
	if err != nil || res.Route != string(engine.RouteEasy) {
		fail = append(fail, fmt.Sprintf("breaker: diverted submit: route %q err %v, want easy route", res.Route, err))
	}

	// Heal the route; probe traffic must walk the breaker closed again.
	inj.SetStuck("")
	deadline := time.Now().Add(5 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		res, err := e.Submit(context.Background(), engine.Request{Pixels: hard})
		if err == nil && res.Route == string(engine.RouteHard) && !e.BreakerOpen(engine.RouteHard) {
			recovered = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		fail = append(fail, "breaker: hard route never recovered after healing")
	}

	mu.Lock()
	got := make(map[string]bool, len(edges))
	for _, ed := range edges {
		got[ed] = true
	}
	edgeList := fmt.Sprint(edges)
	mu.Unlock()
	fmt.Fprintf(w, "faultisolation: breaker drill — transitions %s  diverted %d\n",
		edgeList, e.Stats().Diverted)
	for _, want := range []string{"hard:closed->open", "hard:open->half-open", "hard:half-open->closed"} {
		if !got[want] {
			fail = append(fail, fmt.Sprintf("breaker: missing transition %s (saw %s)", want, edgeList))
		}
	}
	if e.Stats().Diverted < 1 {
		fail = append(fail, "breaker: no request was diverted off the open breaker")
	}
	return fail
}
