package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"cbnet/internal/resilience"
)

// scoringImage returns a clean render that RouteOf sends to want under the
// default threshold.
func scoringImage(t *testing.T, want RouteName) []float32 {
	t.Helper()
	if want == RouteHard {
		return stubbornHardImage(t, 0)
	}
	for s := uint64(0); s < 1000; s++ {
		img := easyImage(s)
		if name, _ := RouteOf(img, DefaultHardnessThreshold); name == RouteEasy {
			return img
		}
	}
	t.Fatal("no easy-scoring image in 1000 seeds")
	return nil
}

// wedge parks the engine's workers and batchers (every route holds one
// request at the gate and one in its batcher's hands), so that whatever a
// test then puts on a queue stays there.
func wedge(t *testing.T, e *Engine) {
	t.Helper()
	for _, rt := range e.live {
		for i := 0; i < 2; i++ {
			rt.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)}
		}
	}
	for _, rt := range e.live {
		for start := time.Now(); len(rt.queue) > 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("%s never took its wedge requests", rt.name)
			}
		}
	}
}

// TestPlace holds the one placement function to a table over everything it
// reads: the route the score prefers, each route's queue fill, each route's
// breaker, IncludeConverted, DisableRouting, and the two switches. Queues
// hold 4, so the spill mark is 2 queued requests.
func TestPlace(t *testing.T) {
	const (
		below  = 1 // one short of the mark
		atMark = 2
	)
	type fill struct{ hard, easy, variant int }
	type open struct{ hard, easy, variant bool }
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()

	cases := []struct {
		name      string
		degrade   bool
		resil     bool
		noRouting bool
		prefer    RouteName
		converted bool
		ctx       context.Context
		poisoned  bool
		fill      fill
		open      open
		want      RouteName // "" = refused with wantErr
		wantErr   error
	}{
		// Both switches off: the parent's answer, whatever the queues hold.
		{name: "off/easy", prefer: RouteEasy, want: RouteEasy},
		{name: "off/hard", prefer: RouteHard, want: RouteHard},
		{name: "off/easy-converted", prefer: RouteEasy, converted: true, want: RouteHard},
		{name: "off/no-routing", noRouting: true, prefer: RouteEasy, want: RouteHard},
		{name: "off/full-queues-ignored", prefer: RouteHard, fill: fill{4, 4, 4}, want: RouteHard},
		{name: "off/expired", prefer: RouteEasy, ctx: expired, wantErr: ErrDeadline},

		// Spill armed: the first route from the preferred one with room.
		{name: "spill/room", degrade: true, prefer: RouteHard, fill: fill{hard: below}, want: RouteHard},
		{name: "spill/hard-at-mark", degrade: true, prefer: RouteHard, fill: fill{hard: atMark}, want: RouteEasy},
		{name: "spill/hard-easy-at-mark", degrade: true, prefer: RouteHard, fill: fill{hard: atMark, easy: 3}, want: "pruned"},
		{name: "spill/all-at-mark", degrade: true, prefer: RouteHard, fill: fill{atMark, atMark, atMark}, wantErr: ErrOverloaded},
		{name: "spill/easy-at-mark", degrade: true, prefer: RouteEasy, fill: fill{easy: atMark}, want: "pruned"},
		{name: "spill/wraps-to-hard", degrade: true, prefer: RouteEasy, fill: fill{easy: atMark, variant: atMark}, want: RouteHard},
		{name: "spill/converted-stays", degrade: true, prefer: RouteHard, converted: true, fill: fill{hard: atMark}, want: RouteHard},
		{name: "spill/no-routing-forces-it-off", degrade: true, noRouting: true, prefer: RouteHard, fill: fill{hard: 4}, want: RouteHard},
		{name: "spill/expired-before-room", degrade: true, prefer: RouteHard, ctx: expired, fill: fill{atMark, atMark, atMark}, wantErr: ErrDeadline},

		// Breakers armed: the first route from the preferred one that admits.
		{name: "breaker/closed", resil: true, prefer: RouteHard, want: RouteHard},
		{name: "breaker/hard-open", resil: true, prefer: RouteHard, open: open{hard: true}, want: RouteEasy},
		{name: "breaker/hard-easy-open", resil: true, prefer: RouteHard, open: open{hard: true, easy: true}, want: "pruned"},
		{name: "breaker/all-open", resil: true, prefer: RouteEasy, open: open{true, true, true}, wantErr: ErrOverloaded},
		{name: "breaker/easy-open-wraps", resil: true, prefer: RouteEasy, open: open{easy: true, variant: true}, want: RouteHard},
		{name: "breaker/converted-stays", resil: true, prefer: RouteHard, converted: true, open: open{hard: true}, want: RouteHard},
		{name: "breaker/fill-ignored", resil: true, prefer: RouteHard, fill: fill{hard: 4}, want: RouteHard},
		{name: "breaker/no-routing-nowhere-to-go", resil: true, noRouting: true, prefer: RouteHard, open: open{hard: true}, wantErr: ErrOverloaded},
		{name: "breaker/poisoned", resil: true, prefer: RouteEasy, poisoned: true, wantErr: ErrPoisoned},
		{name: "breaker/expired-before-poisoned", resil: true, prefer: RouteEasy, poisoned: true, ctx: expired, wantErr: ErrDeadline},

		// Both: a route is taken only if it passes both.
		{name: "both/full-then-open", degrade: true, resil: true, prefer: RouteHard, fill: fill{hard: atMark}, open: open{easy: true}, want: "pruned"},
		{name: "both/open-then-full", degrade: true, resil: true, prefer: RouteHard, fill: fill{easy: atMark}, open: open{hard: true}, want: "pruned"},
		{name: "both/nothing-left", degrade: true, resil: true, prefer: RouteEasy, fill: fill{hard: atMark}, open: open{easy: true, variant: true}, wantErr: ErrOverloaded},
	}
	pruned := subflowVariant(t)
	pruned.Name = "pruned"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gate := make(gateFault)
			e := testEngine(t, Config{
				MaxBatch: 1, Workers: 1, QueueDepth: 4,
				Fault:          gate,
				DisableRouting: c.noRouting,
				Variants:       []Variant{pruned},
				Degrade:        DegradeConfig{Enabled: c.degrade},
				Resilience: ResilienceConfig{
					Enabled: c.resil,
					Breaker: resilience.BreakerConfig{Window: 2, MinSamples: 2, Cooldown: time.Hour},
				},
			})
			t.Cleanup(func() { close(gate) }) // before Close: the wedged workers must finish
			wedge(t, e)

			img := scoringImage(t, c.prefer)
			state := map[RouteName]struct {
				fill int
				open bool
			}{
				RouteHard: {c.fill.hard, c.open.hard},
				RouteEasy: {c.fill.easy, c.open.easy},
				"pruned":  {c.fill.variant, c.open.variant},
			}
			for _, rt := range e.live {
				st := state[rt.name]
				for i := 0; i < st.fill; i++ {
					rt.queue <- &request{ctx: context.Background(), pixels: img, done: make(chan outcome, 1)}
				}
				if st.open {
					rt.breaker.Observe(false)
					rt.breaker.Observe(false)
				}
			}
			if c.poisoned {
				e.res.quar.Add(resilience.Fingerprint(img))
			}

			r := &request{ctx: c.ctx, pixels: img, wantConverted: c.converted}
			if r.ctx == nil {
				r.ctx = context.Background()
			}
			got, err := e.place(r)
			if !errors.Is(err, c.wantErr) {
				t.Fatalf("place err = %v, want %v", err, c.wantErr)
			}
			stats := e.Stats()
			if err != nil {
				if got != nil {
					t.Fatalf("place returned route %s with error %v", got.name, err)
				}
				if wantShed := errors.Is(err, ErrOverloaded); (stats.Shed == 1) != wantShed {
					t.Errorf("shed %d after %v: a request no route takes is the one thing shed counts", stats.Shed, err)
				}
				return
			}
			if got.name != c.want {
				t.Fatalf("place chose %s, want %s", got.name, c.want)
			}

			// The invariants, whatever the row says.
			preferred := parentRouteFor(img, c.converted, c.noRouting)
			if c.converted {
				if got != e.hard {
					t.Errorf("IncludeConverted placed on %s: only hard produces the converted image", got.name)
				}
			} else {
				if c.degrade && !c.noRouting && got.pastMark() {
					t.Errorf("placed on %s with %d of %d queued: at or past its mark with the spill armed",
						got.name, len(got.queue), cap(got.queue))
				}
				if c.resil && state[got.name].open {
					t.Errorf("placed on %s, whose breaker refuses", got.name)
				}
			}
			if !c.degrade && !c.resil && got.name != preferred {
				t.Errorf("both switches off: placed on %s, the rule before there was a ladder answers %s", got.name, preferred)
			}
			if wantDiverted := got.name != preferred; (stats.Diverted == 1) != wantDiverted {
				t.Errorf("diverted %d with %s preferred and %s chosen", stats.Diverted, preferred, got.name)
			}
			if _, h := RouteOf(img, DefaultHardnessThreshold); !c.noRouting && r.hardness != h {
				t.Errorf("request hardness %v, want the score %v whichever route answers", r.hardness, h)
			}
		})
	}
}

// parentRouteFor is the routing rule before there was anything to spill or
// divert: hard when routing is off or the converted image is wanted, else
// the score's route.
func parentRouteFor(pixels []float32, converted, noRouting bool) RouteName {
	if noRouting || converted {
		return RouteHard
	}
	name, _ := RouteOf(pixels, DefaultHardnessThreshold)
	return name
}

// TestSpillMovesOnlyTheOverflow: with the workers wedged, a stream of
// hard-scoring requests fills hard's queue up to the mark and only the
// requests after that land on easy — the stream is not moved, its overflow
// is — and every one of them, on either route, reports its score.
func TestSpillMovesOnlyTheOverflow(t *testing.T) {
	const depth = 8
	gate := make(gateFault)
	e := testEngine(t, Config{
		MaxBatch: 1, Workers: 1, QueueDepth: depth,
		Fault:   gate,
		Degrade: DegradeConfig{Enabled: true},
	})
	wedge(t, e)

	img := stubbornHardImage(t, 3)
	_, score := RouteOf(img, DefaultHardnessThreshold)
	results := make(chan Result, depth)
	submit := func() {
		go func() {
			res, err := e.Submit(context.Background(), Request{Pixels: img})
			if err != nil {
				t.Errorf("submit: %v", err)
			}
			results <- res
		}()
	}
	// One at a time, so that "the first depth/2" means something.
	for i := 1; i <= depth/2; i++ {
		submit()
		for start := time.Now(); len(e.hard.queue) < i; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("request %d: hard queue at %d, easy at %d", i, len(e.hard.queue), len(e.easy.queue))
			}
		}
	}
	if n := len(e.easy.queue); n != 0 {
		t.Fatalf("%d requests on easy before hard reached its mark", n)
	}
	for i := 1; i <= depth/2; i++ {
		submit()
		for start := time.Now(); len(e.easy.queue) < i; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("overflow request %d: hard queue at %d, easy at %d", i, len(e.hard.queue), len(e.easy.queue))
			}
		}
	}
	if n := len(e.hard.queue); n != depth/2 {
		t.Fatalf("hard queue at %d after the overflow, want it held at the mark %d", n, depth/2)
	}
	if !e.Shedding() {
		t.Fatal("Shedding() false with every route at its mark")
	}
	if s := e.Stats(); s.Diverted != depth/2 {
		t.Fatalf("diverted %d, want the %d overflow requests", s.Diverted, depth/2)
	}

	close(gate)
	byRoute := map[string]int{}
	for i := 0; i < depth; i++ {
		res := <-results
		byRoute[res.Route]++
		if res.Hardness != score {
			t.Errorf("answer from %s reports hardness %v, want the score %v", res.Route, res.Hardness, score)
		}
	}
	if byRoute["hard"] != depth/2 || byRoute["easy"] != depth/2 {
		t.Fatalf("answers by route %v, want %d each from hard and easy", byRoute, depth/2)
	}
	if e.Shedding() {
		t.Fatal("Shedding() still true with the queues drained: nothing has to relax")
	}
}
