package engine

import (
	"context"
	"errors"

	"cbnet/internal/generalize"
	"cbnet/internal/resilience"
)

// RouteOf scores one image with the §V hardness heuristic and decides its
// route under the given threshold: scores below it go classifier-only
// (easy), everything else takes the full AE path. Exposed so tools and
// tests can ask "where would this image go?" without an engine.
func RouteOf(pixels []float32, threshold float64) (RouteName, float64) {
	h := generalize.HardnessScore(pixels)
	if h < threshold {
		return RouteEasy, h
	}
	return RouteHard, h
}

// DegradeConfig arms graceful degradation: overload costs the overflow its
// accuracy before it costs anyone an answer.
type DegradeConfig struct {
	// Enabled makes place pass over a route whose queue has reached
	// spillMark and try the next one down the ladder (hard, easy, then
	// Config.Variants in the order given). DisableRouting forces it off.
	Enabled bool
}

// spillMark is the queue occupancy, as a fraction of QueueDepth, at which a
// route stops taking new requests while a cheaper one still has room. One
// value, chosen by the flash-crowd drill (cbnet-bench -exp overload, 5× the
// hard route's capacity, 250 ms deadline, 2-core host): at 0.5, 1251–1252
// of 1252 requests are answered in 10 of 10 runs with p99 217–248 ms and
// the hard route still serving 335–339 of them; a full hard queue would
// hold a request past the deadline (64 slots × 20 ms / 4 per batch = 320 ms
// against 160 ms at the mark).
const spillMark = 0.5

// pastMark reports whether the route's queue has reached spillMark.
func (rt *route) pastMark() bool {
	return float64(len(rt.queue)) >= spillMark*float64(cap(rt.queue))
}

// place is the one function that gives a request a route, or the reason it
// has none. In order: a context already expired is ErrDeadline; a
// quarantined fingerprint is ErrPoisoned; the preferred route is hard when
// routing is disabled, else RouteOf's answer; then the ladder is walked
// from the preferred route, wrapping, and the first route with room (spill
// armed) whose breaker admits (resilience armed) takes the request. The
// queue is asked before the breaker because Breaker.Allow spends a
// half-open probe. No route left is ErrOverloaded.
//
// Nothing here remembers the last decision: a route is passed over only
// while its own queue or breaker says so, which is also why an open
// breaker needs no rule to get its probes — the next request that prefers
// the route asks it.
func (e *Engine) place(r *request) (*route, error) {
	if err := r.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.stats.expired.Inc()
			return nil, ErrDeadline
		}
		return nil, err
	}
	if e.res != nil {
		r.fp = resilience.Fingerprint(r.pixels)
		if e.res.quar.Check(r.fp) {
			e.res.poisoned.Inc()
			return nil, ErrPoisoned
		}
	}
	first := 0 // e.ladder[0] is hard
	if !e.cfg.DisableRouting {
		var name RouteName
		name, r.hardness = RouteOf(r.pixels, e.cfg.HardnessThreshold)
		if name == RouteEasy {
			first = 1
		}
	}
	if r.wantConverted {
		// Only the AE path produces the converted image, so there is no
		// decision to take: the request rides hard whatever its queue and
		// breaker say, and the send or the forward pass answers honestly.
		return e.hard, nil
	}
	for i := range e.ladder {
		rt := e.ladder[(first+i)%len(e.ladder)]
		if e.cfg.Degrade.Enabled && rt.pastMark() {
			continue
		}
		if rt.breaker != nil && !rt.breaker.Allow() {
			continue
		}
		if i > 0 {
			e.stats.diverted.Inc()
		}
		return rt, nil
	}
	e.stats.shed.Inc()
	return nil, ErrOverloaded
}

// Shedding reports whether place would refuse a request for lack of room
// right now: the spill is armed and every ladder route is at or past
// spillMark. Surfaced by /readyz.
func (e *Engine) Shedding() bool {
	if !e.cfg.Degrade.Enabled {
		return false
	}
	for _, rt := range e.ladder {
		if !rt.pastMark() {
			return false
		}
	}
	return true
}

// DegradeLadder returns the route names in the order place walks them, or
// nil when the spill is not armed (surfaced by /info and /stats).
func (e *Engine) DegradeLadder() []string {
	if !e.cfg.Degrade.Enabled {
		return nil
	}
	names := make([]string, len(e.ladder))
	for i, rt := range e.ladder {
		names[i] = string(rt.name)
	}
	return names
}
