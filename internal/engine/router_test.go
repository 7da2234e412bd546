package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
)

// scoringImage returns a render that RouteOf sends to want.
func scoringImage(t *testing.T, want RouteName) []float32 {
	t.Helper()
	if want == RouteHard {
		return stubbornHardImage(t, 0)
	}
	return stubbornEasyImages(t, 0, 1, nil)[0]
}

// wedge parks the engine's workers (at MaxBatch 1 each holds one request at
// the gate), so that whatever a test then puts on a queue stays there.
func wedge(t *testing.T, e *Engine) {
	t.Helper()
	for _, rt := range e.routes {
		for range rt.workers {
			rt.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)}
		}
	}
	for _, rt := range e.routes {
		for start := time.Now(); len(rt.queue) > 0; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("%s never took its wedge requests", rt.name)
			}
		}
	}
}

// TestPlace holds the one placement function to a table over everything it
// reads: the route the score prefers, each route's queue fill, each route's
// breaker, the quarantine and IncludeConverted. Queues hold 4, so the spill
// mark is 2 queued requests.
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
		prefer    RouteName
		converted bool
		ctx       context.Context
		poisoned  bool
		fill      fill
		open      open
		want      RouteName // "" = refused with wantErr
		wantErr   error
	}{
		// Queues empty, breakers closed: the score's route.
		{name: "idle/easy", prefer: RouteEasy, want: RouteEasy},
		{name: "idle/hard", prefer: RouteHard, want: RouteHard},
		{name: "idle/easy-converted", prefer: RouteEasy, converted: true, want: RouteHard},
		{name: "idle/expired", prefer: RouteEasy, ctx: expired, wantErr: ErrDeadline},

		// The spill: the first route from the preferred one under its mark.
		{name: "spill/room", prefer: RouteHard, fill: fill{hard: below}, want: RouteHard},
		{name: "spill/hard-at-mark", prefer: RouteHard, fill: fill{hard: atMark}, want: RouteEasy},
		{name: "spill/hard-easy-at-mark", prefer: RouteHard, fill: fill{hard: atMark, easy: 3}, want: "pruned"},
		{name: "spill/all-at-mark", prefer: RouteHard, fill: fill{atMark, atMark, atMark}, wantErr: ErrOverloaded},
		{name: "spill/easy-at-mark", prefer: RouteEasy, fill: fill{easy: atMark}, want: "pruned"},
		{name: "spill/wraps-to-hard", prefer: RouteEasy, fill: fill{easy: atMark, variant: atMark}, want: RouteHard},
		{name: "spill/converted-stays", prefer: RouteHard, converted: true, fill: fill{hard: atMark}, want: RouteHard},
		{name: "spill/expired-before-room", prefer: RouteHard, ctx: expired, fill: fill{atMark, atMark, atMark}, wantErr: ErrDeadline},

		// Breakers: the first route from the preferred one that admits.
		{name: "breaker/closed", prefer: RouteHard, want: RouteHard},
		{name: "breaker/hard-open", prefer: RouteHard, open: open{hard: true}, want: RouteEasy},
		{name: "breaker/hard-easy-open", prefer: RouteHard, open: open{hard: true, easy: true}, want: "pruned"},
		{name: "breaker/all-open", prefer: RouteEasy, open: open{true, true, true}, wantErr: ErrOverloaded},
		{name: "breaker/easy-open-wraps", prefer: RouteEasy, open: open{easy: true, variant: true}, want: RouteHard},
		{name: "breaker/converted-stays", prefer: RouteHard, converted: true, open: open{hard: true}, want: RouteHard},
		{name: "breaker/fill-ignored", prefer: RouteHard, fill: fill{hard: below}, want: RouteHard},
		{name: "breaker/poisoned", prefer: RouteEasy, poisoned: true, wantErr: ErrPoisoned},
		{name: "breaker/expired-before-poisoned", prefer: RouteEasy, poisoned: true, ctx: expired, wantErr: ErrDeadline},

		// Both: a route is taken only if it passes both.
		{name: "both/full-then-open", prefer: RouteHard, fill: fill{hard: atMark}, open: open{easy: true}, want: "pruned"},
		{name: "both/open-then-full", prefer: RouteHard, fill: fill{easy: atMark}, open: open{hard: true}, want: "pruned"},
		{name: "both/nothing-left", prefer: RouteEasy, fill: fill{hard: atMark}, open: open{easy: true, variant: true}, wantErr: ErrOverloaded},
	}
	pruned := subflowVariant(t)
	pruned.Name = "pruned"
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			gate := make(gateFault)
			e := testEngine(t, Config{
				MaxBatch: 1, Workers: 1, QueueDepth: 4,
				Fault:    gate,
				Variants: []Variant{pruned},
				Resilience: ResilienceConfig{
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
			for _, rt := range e.routes {
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
				e.quar.Add(resilience.Fingerprint(img))
			}

			r := &request{ctx: c.ctx, pixels: img, wantConverted: c.converted}
			if r.ctx == nil {
				r.ctx = context.Background()
			}
			got, diverted, err := e.place(r)
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
			preferred := parentRouteFor(img, c.converted)
			if c.converted {
				if got != e.hard {
					t.Errorf("IncludeConverted placed on %s: only hard produces the converted image", got.name)
				}
			} else {
				if got.pastMark() {
					t.Errorf("placed on %s with %d of %d queued: at or past its mark",
						got.name, len(got.queue), cap(got.queue))
				}
				if state[got.name].open {
					t.Errorf("placed on %s, whose breaker refuses", got.name)
				}
			}
			if diverted != (got.name != preferred) {
				t.Errorf("diverted %v with %s preferred and %s chosen", diverted, preferred, got.name)
			}
			if _, h := RouteOf(img); r.hardness != h {
				t.Errorf("request hardness %v, want the score %v whichever route answers", r.hardness, h)
			}
		})
	}
}

// parentRouteFor is the routing rule before there was anything to spill or
// divert: hard when the converted image is wanted, else the score's route.
func parentRouteFor(pixels []float32, converted bool) RouteName {
	if converted {
		return RouteHard
	}
	name, _ := RouteOf(pixels)
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
		Fault: gate,
	})
	wedge(t, e)

	img := stubbornHardImage(t, 3)
	_, score := RouteOf(img)
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
	if s := e.Stats(); s.Diverted != depth/2 {
		t.Fatalf("diverted %d, want the %d overflow requests", s.Diverted, depth/2)
	}
	if e.Shedding() {
		t.Fatal("Shedding() still true with the queues drained: nothing has to relax")
	}
}

// holdFault holds every forward pass until release is closed, first
// telling entered which route's worker arrived.
type holdFault struct {
	entered chan RouteName
	release chan struct{}
}

func (h holdFault) BeforeInfer(route string, _ *tensor.Tensor) error {
	h.entered <- RouteName(route)
	<-h.release
	return nil
}

// TestZeroConfigSpills: the spill is not a setting. An engine built from the
// zero Config — the test's gate is the only field set, and it touches only
// the forward pass — passes over hard once hard's queue holds spillMark of
// the default QueueDepth, and the next hard-preferring request is answered
// on easy.
func TestZeroConfigSpills(t *testing.T) {
	// entered holds one send per batch without blocking: more than the
	// wedges, hard's queue at its mark and the spilled request can form.
	hold := holdFault{entered: make(chan RouteName, 1024), release: make(chan struct{})}
	e := testEngine(t, Config{Fault: hold})
	release := sync.OnceFunc(func() { close(hold.release) })
	t.Cleanup(release) // before Close: the held workers must finish
	cfg := e.Config()

	// One request at a time, each taken before the next is sent, so every
	// hard worker holds exactly one at the gate.
	for range cfg.Workers {
		e.hard.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)}
		if got := <-hold.entered; got != RouteHard {
			t.Fatalf("wedge request reached %s, want hard", got)
		}
	}
	mark := int(spillMark * float64(cfg.QueueDepth))
	for len(e.hard.queue) < mark {
		e.hard.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)}
	}

	img := stubbornHardImage(t, 5)
	results := make(chan Result, 1)
	go func() {
		res, err := e.Submit(context.Background(), Request{Pixels: img})
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		results <- res
	}()
	// Placed: either an easy worker reached the gate, or the request was
	// queued behind hard's mark.
	for start := time.Now(); len(hold.entered) == 0 && len(e.hard.queue) == mark; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the hard-preferring request was never placed")
		}
	}
	if n := len(e.hard.queue); n != mark {
		t.Fatalf("hard queue at %d with its mark at %d: the zero Config did not spill", n, mark)
	}
	release()
	if res := <-results; res.Route != string(RouteEasy) {
		t.Fatalf("answered on %q, want easy: hard's queue was at its mark", res.Route)
	}
	if s := e.Stats(); s.Diverted != 1 {
		t.Fatalf("diverted %d, want 1", s.Diverted)
	}
}

// TestRefusedDiversionIsNotCounted: a request diverted to a route whose
// queue turns out full at the send was never answered by that route. It is
// rejected, and only rejected: place had counted the diversion before the
// send, so the same request read as both diverted and rejected.
//
// place only picks a route under its mark, so the queue has to fill between
// place and the send. The test holds the engine's lock, which Submit takes
// after place, and learns that place has chosen easy from easy's breaker:
// it is open with its cooldown spent, so choosing easy moves it to
// half-open.
func TestRefusedDiversionIsNotCounted(t *testing.T) {
	gate := make(gateFault)
	e := testEngine(t, Config{
		MaxBatch: 1, Workers: 1, QueueDepth: 2,
		Fault: gate,
		Resilience: ResilienceConfig{
			Breaker: resilience.BreakerConfig{Window: 2, MinSamples: 2, Cooldown: time.Nanosecond},
		},
	})
	t.Cleanup(func() { close(gate) }) // before Close: the wedged workers must finish
	wedge(t, e)
	e.hard.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)} // at its mark
	e.easy.breaker.Observe(false)
	e.easy.breaker.Observe(false)
	chosen := make(chan struct{}, 1)
	e.OnBreaker(func(tr BreakerTransition) {
		if tr.Route == RouteEasy && tr.To == resilience.HalfOpen {
			chosen <- struct{}{}
		}
	})

	img := scoringImage(t, RouteHard)
	e.mu.Lock()
	errc := make(chan error, 1)
	go func() {
		_, err := e.Submit(context.Background(), Request{Pixels: img})
		errc <- err
	}()
	select {
	case <-chosen:
	case <-time.After(10 * time.Second):
		e.mu.Unlock()
		t.Fatal("place never chose easy")
	}
	for len(e.easy.queue) < cap(e.easy.queue) {
		e.easy.queue <- &request{ctx: context.Background(), pixels: easyImage(1), done: make(chan outcome, 1)}
	}
	e.mu.Unlock()

	if err := <-errc; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("diverted to easy, easy queue full at the send: err = %v, want ErrOverloaded", err)
	}
	if s := e.Stats(); s.Diverted != 0 || s.Rejected != 1 {
		t.Fatalf("diverted %d rejected %d, want 0 and 1", s.Diverted, s.Rejected)
	}
}
