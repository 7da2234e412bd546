package engine

import (
	"context"
	"errors"

	"cbnet/internal/generalize"
	"cbnet/internal/resilience"
)

// RouteOf scores one image with the §V hardness heuristic and decides its
// route: scores below DefaultHardnessThreshold go classifier-only (easy),
// everything else takes the full AE path. Exposed so tools and tests can ask
// "where would this image go?" without an engine.
func RouteOf(pixels []float32) (RouteName, float64) {
	h := generalize.HardnessScore(pixels)
	if h < DefaultHardnessThreshold {
		return RouteEasy, h
	}
	return RouteHard, h
}

// spillMark is the queue occupancy, as a fraction of QueueDepth, at which a
// route stops taking new requests and place tries the next one down the
// ladder (hard, easy, then Config.Variants in the order given), so overload
// costs the overflow its accuracy before it costs anyone an answer. One
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
// quarantined fingerprint is ErrPoisoned; the preferred route is RouteOf's
// answer; then the ladder is walked from the preferred route, wrapping, and
// the first route under its spill mark whose breaker admits takes the
// request. The queue is asked before the breaker because
// Breaker.Allow spends a half-open probe. No route left is ErrOverloaded.
// The bool reports a diversion, a route other than the preferred one; Submit
// counts it once the request is on that route's queue.
//
// Nothing here remembers the last decision: a route is passed over only
// while its own queue or breaker says so, which is also why an open
// breaker needs no rule to get its probes — the next request that prefers
// the route asks it.
func (e *Engine) place(r *request) (*route, bool, error) {
	if err := r.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.stats.expired.Inc()
			return nil, false, ErrDeadline
		}
		return nil, false, err
	}
	// The ring only fills (bisection's Add) and overwrites, never empties:
	// while it has taken nothing no fingerprint can match, and the hash is
	// skipped — every request's case until a culprit is convicted.
	if e.quar.Adds() > 0 && e.quar.Check(resilience.Fingerprint(r.pixels)) {
		e.poisoned.Inc()
		return nil, false, ErrPoisoned
	}
	var name RouteName
	name, r.hardness = RouteOf(r.pixels)
	if r.wantConverted {
		// Only the AE path produces the converted image, so there is no
		// decision to take: the request rides hard whatever its queue and
		// breaker say, and the send or the forward pass answers honestly.
		return e.hard, false, nil
	}
	first := 0 // e.routes[0] is hard
	if name == RouteEasy {
		first = 1
	}
	for i := range e.routes {
		rt := e.routes[(first+i)%len(e.routes)]
		if rt.pastMark() {
			continue
		}
		if !rt.breaker.Allow() {
			continue
		}
		return rt, i > 0, nil
	}
	e.stats.shed.Inc()
	return nil, false, ErrOverloaded
}

// Shedding reports whether place would refuse a request for lack of room
// right now: every ladder route is at or past spillMark. Surfaced by
// /readyz.
func (e *Engine) Shedding() bool {
	for _, rt := range e.routes {
		if !rt.pastMark() {
			return false
		}
	}
	return true
}

// DegradeLadder returns the route names in the order place walks them
// (surfaced by /info and /stats).
func (e *Engine) DegradeLadder() []string {
	names := make([]string, len(e.routes))
	for i, rt := range e.routes {
		names[i] = string(rt.name)
	}
	return names
}
