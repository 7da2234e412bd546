package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/compress"
	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/rng"
)

// overloadDeadline bounds every synthetic request's end-to-end time; it
// stands in for the client SLO during the flash crowd.
const overloadDeadline = 250 * time.Millisecond

// overloadResult summarizes one flash-crowd run against the engine.
type overloadResult struct {
	name       string
	offered    int
	served     int
	overloaded int // ErrOverloaded: no route with room, or queue full → HTTP 503
	expired    int // deadline ran out → HTTP 504
	other      int
	p50, p99   time.Duration
	routes     []engine.RouteSnapshot // images served per route, crowd only
}

// routeImages renders "hard 338 easy 801 pruned 113".
func (r *overloadResult) routeImages() string {
	parts := make([]string, len(r.routes))
	for i, rt := range r.routes {
		parts[i] = fmt.Sprintf("%s %d", rt.Route, rt.Images)
	}
	return strings.Join(parts, " ")
}

func (r *overloadResult) okFraction() float64 {
	if r.offered == 0 {
		return 0
	}
	return float64(r.served) / float64(r.offered)
}

// runOverload is the chaos experiment behind -exp overload: the same
// trapezoidal flash crowd (5× the hard route's injected capacity at peak)
// is thrown at two identically-provisioned engines. In the ladder run the
// crowd's requests may spill down the ladder; in the baseline every request
// sets IncludeConverted, which pins it to hard whatever hard's queue holds,
// so the baseline sees what an engine without the spill would. The ladder
// run must answer at least 99% of the crowd with p99 under the request
// deadline, spread it over all three routes (hard keeps what it has room
// for, the overflow rides easy, then pruned), answer a hard image on hard
// again the moment the crowd has passed, and reject at least 10× fewer
// requests than the baseline.
func runOverload(w io.Writer) error {
	wave := chaos.Wave{
		Base:  40,
		Peak:  1000,
		Ramp:  300 * time.Millisecond,
		Hold:  900 * time.Millisecond,
		Decay: 300 * time.Millisecond,
	}
	arrivals := wave.Arrivals(2500 * time.Millisecond)

	ladder, err := overloadRun("ladder", arrivals, false)
	if err != nil {
		return err
	}
	baseline, err := overloadRun("no-ladder", arrivals, true)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "overload: trapezoid %v→%v req/s over 2.5s, %d requests, %v deadline\n",
		wave.Base, wave.Peak, len(arrivals), overloadDeadline)
	for _, r := range []*overloadResult{ladder, baseline} {
		fmt.Fprintf(w, "  %-9s served %4d/%4d (%.1f%%)  503 %4d  504 %4d  other %d  p50 %6.1fms  p99 %6.1fms  %s\n",
			r.name, r.served, r.offered, 100*r.okFraction(), r.overloaded, r.expired, r.other,
			float64(r.p50.Microseconds())/1e3, float64(r.p99.Microseconds())/1e3, r.routeImages())
	}

	var fail []string
	for _, rt := range ladder.routes {
		if rt.Images == 0 {
			fail = append(fail, fmt.Sprintf("ladder served nothing on %s, want every route carrying part of the crowd", rt.Route))
		}
	}
	if ladder.other > 0 || baseline.other > 0 {
		fail = append(fail, fmt.Sprintf("unexpected errors: ladder %d, baseline %d", ladder.other, baseline.other))
	}
	if ladder.okFraction() < 0.99 {
		fail = append(fail, fmt.Sprintf("ladder served only %.1f%% of the crowd, want ≥99%%", 100*ladder.okFraction()))
	}
	if ladder.p99 > overloadDeadline {
		fail = append(fail, fmt.Sprintf("ladder p99 %v exceeds the %v deadline", ladder.p99, overloadDeadline))
	}
	rejectedBaseline := baseline.overloaded + baseline.expired
	rejectedLadder := ladder.overloaded + ladder.expired
	if rejectedBaseline < 100 {
		fail = append(fail, fmt.Sprintf("baseline only rejected %d requests — the crowd did not overload it, experiment invalid", rejectedBaseline))
	}
	if rejectedLadder*10 > rejectedBaseline {
		fail = append(fail, fmt.Sprintf("ladder rejected %d (503+504) vs baseline %d — want ≥10× reduction", rejectedLadder, rejectedBaseline))
	}
	if len(fail) > 0 {
		for _, f := range fail {
			fmt.Fprintf(w, "  FAIL: %s\n", f)
		}
		return fmt.Errorf("overload: %d assertion(s) failed", len(fail))
	}
	fmt.Fprintln(w, "  PASS: ladder rode the flash crowd with bounded p99 and ≥10× fewer rejections")
	return nil
}

// overloadRun drives one open-loop flash crowd against a fresh engine.
// Chaos latency injection pins the capacity ledger: the hard route serves
// ~200 img/s, the early exit ~800, the pruned exit ~4000 — so the 1000/s
// peak overwhelms the paper-faithful path but fits the cheaper routes. With
// pinned set, every request asks for the converted image and so rides hard.
// The engine arms fault isolation like every other, but the crowd injects
// latency and no failures: every batch that runs succeeds, so its breakers
// only ever hear "ok" and the spill mark alone moves the crowd.
func overloadRun(name string, arrivals []time.Duration, pinned bool) (*overloadResult, error) {
	r := rng.New(7)
	branchy := models.NewBranchyLeNet(r, 0.05)
	light := models.ExtractLightweight(branchy)
	pruned, err := compress.PruneLightweight(light, compress.LightweightPruneConfig{Conv1Keep: 1. / 3., BranchKeep: 1. / 3.})
	if err != nil {
		return nil, err
	}
	pipe := &core.Pipeline{AE: models.NewTableIAE(dataset.MNIST, r), Classifier: light}

	inj := chaos.NewInjector()
	inj.SetLatency("hard", 20*time.Millisecond)
	inj.SetLatency("easy", 5*time.Millisecond)
	inj.SetLatency("pruned", time.Millisecond)

	e := engine.New(pipe, engine.Config{
		Workers:    1,
		MaxBatch:   4,
		QueueDepth: 64,
		Fault:      inj,
		Variants:   []engine.Variant{{Name: "pruned", Net: pruned}},
	})
	defer e.Close()

	res := &overloadResult{name: name, offered: len(arrivals)}
	// The whole crowd prefers hard, so every image easy or pruned serves is
	// overflow.
	img := dataset.RenderSample(dataset.MNIST, 3, true, rng.New(11))
	if route, h := engine.RouteOf(img); route != engine.RouteHard {
		return nil, fmt.Errorf("%s: the crowd's image scores %.2f (%s), want one that prefers hard", name, h, route)
	}
	var mu sync.Mutex
	var lat []time.Duration
	var served, overloaded, expired, other atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	for _, at := range arrivals {
		wg.Add(1)
		go func(at time.Duration) {
			defer wg.Done()
			if d := at - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			ctx, cancel := context.WithTimeout(context.Background(), overloadDeadline)
			defer cancel()
			t0 := time.Now()
			_, err := e.Submit(ctx, engine.Request{Pixels: img, IncludeConverted: pinned})
			switch {
			case err == nil:
				served.Add(1)
				mu.Lock()
				lat = append(lat, time.Since(t0))
				mu.Unlock()
			case errors.Is(err, engine.ErrOverloaded):
				overloaded.Add(1)
			case errors.Is(err, engine.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
				expired.Add(1)
			default:
				other.Add(1)
			}
		}(at)
	}
	wg.Wait()
	res.routes = e.Stats().Routes

	// The crowd has passed and every request is answered: with nothing to
	// relax, the very next hard image is hard's again.
	after, err := e.Submit(context.Background(), engine.Request{Pixels: img})
	if err != nil || after.Route != string(engine.RouteHard) {
		return nil, fmt.Errorf("%s: after the crowd a hard image got route %q, err %v; want hard", name, after.Route, err)
	}

	res.served = int(served.Load())
	res.overloaded = int(overloaded.Load())
	res.expired = int(expired.Load())
	res.other = int(other.Load())
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		res.p50 = lat[n/2]
		res.p99 = lat[n*99/100]
	}
	return res, nil
}
