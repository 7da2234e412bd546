package engine

import (
	"errors"
	"math/bits"
	"time"

	"cbnet/internal/resilience"
	"cbnet/internal/trace"
)

// ErrPoisoned is returned by Submit when the request's content fingerprint
// matches a quarantined poison pill — an input that was previously
// convicted (by batch bisection) of crashing inference. Callers should
// surface it as a client error (HTTP 422), distinct from overload: the
// request is rejected because of what it contains, not because of load.
var ErrPoisoned = errors.New("engine: input quarantined as a poison pill")

// ResilienceConfig tunes the fault-isolation layer: batch bisection on
// infer failure, the poison-pill quarantine and the per-route circuit
// breakers that place consults. The layer is always armed; the zero value
// takes the breaker defaults.
type ResilienceConfig struct {
	// Enabled is read by nothing. It is kept only because the repository
	// benchmark's engine config (benchmark/workloads.go) spells it, and it
	// goes with that literal (ROADMAP item 5).
	Enabled bool
	// Breaker tunes the per-route circuit breakers.
	Breaker resilience.BreakerConfig
}

// BreakerTransition describes one circuit-breaker state change, delivered
// to OnBreaker observers (the serve layer logs it and writes a breaker span
// to its track).
type BreakerTransition struct {
	Route RouteName
	From  resilience.State
	To    resilience.State
}

// breakerChanged is the per-route breaker callback: it runs on whichever
// goroutine won the transition CAS (a worker observing a failure, or a
// Submit admitting the first probe). Cold path.
func (e *Engine) breakerChanged(rt *route, from, to resilience.State) {
	if fn, ok := e.onBreaker.Load().(func(BreakerTransition)); ok && fn != nil {
		fn(BreakerTransition{Route: rt.name, From: from, To: to})
	}
}

// OnBreaker installs the breaker-transition observer (replacing any
// previous one). The callback runs on the goroutine that won the
// transition — keep it cheap.
func (e *Engine) OnBreaker(fn func(BreakerTransition)) { e.onBreaker.Store(fn) }

// BreakerOpen reports whether the named route's breaker is currently
// open. False when the route is unknown.
func (e *Engine) BreakerOpen(name RouteName) bool {
	rt, ok := e.byName[name]
	return ok && rt.breaker.State() == resilience.Open
}

// bisect isolates the culprit(s) of a failed multi-request batch by
// recursively re-running halves on the same worker (same PlanSet, same
// batch buffer), answering every request a re-run serves. It returns the
// requests it could not serve, unanswered: runBatch answers them once the
// route's breaker has the batch's verdict, so len(batch) − len(failed) is
// what bisection saved.
//
// A lone bad input costs at most two sub-runs a level, 2⌈log₂ n⌉ in all:
// the half that holds it fails and splits, its sibling is served. A fault
// in the route fails every sub-run instead, and the leftmost descent to a
// singleton plus that singleton's sibling — ⌈log₂ n⌉ + 1 sub-runs — is
// enough to say so: with nothing served by then the rest fail as a group,
// which is what the batch would have done without bisection. A singleton
// that fails is convicted as a poison pill and quarantined, but only if a
// sibling from the batch was served: a route-wide fault fails every
// singleton too, and quarantining innocents on that evidence would turn an
// outage into a blocklist. Cold path — it only runs after a batch failed.
func (e *Engine) bisect(rt *route, w *worker, batch []*request, parentID uint64) (failed []*request) {
	runs, served := 0, 0
	var convicted []*request
	var run func(sub []*request)
	run = func(sub []*request) {
		// More than ⌈log₂ n⌉ re-runs and nobody served: the route, not an input.
		if served == 0 && runs > bits.Len(uint(len(batch)-1)) {
			failed = append(failed, sub...)
			return
		}
		runs++
		if e.runSubBatch(rt, w, sub, parentID) {
			served += len(sub)
			return
		}
		if len(sub) == 1 {
			convicted = append(convicted, sub[0])
			return
		}
		mid := len(sub) / 2
		run(sub[:mid])
		run(sub[mid:])
	}
	// The full batch is already known to fail: start from the halves.
	mid := len(batch) / 2
	run(batch[:mid])
	run(batch[mid:])
	e.bisectRuns.Add(int64(runs))
	e.bisectSaved.Add(int64(served))
	if served > 0 {
		// In the quarantine before the culprit hears of its failure: a caller
		// that resubmits the moment it is answered is turned away at
		// admission instead of failing a second batch. Admission hashes
		// nothing while the ring is empty, so the culprit is hashed here.
		for _, r := range convicted {
			e.quar.Add(resilience.Fingerprint(r.pixels))
			e.culprits.Inc()
		}
	}
	return append(failed, convicted...)
}

// runSubBatch re-runs a sub-batch through the route's forward pass on the
// worker's own buffers, answering its requests on success. Returns false
// when the sub-batch still fails. Each re-run is traced as a bisect span
// whose Ref links the failed parent batch; the breaker hears nothing of it.
func (e *Engine) runSubBatch(rt *route, w *worker, sub []*request, parentID uint64) bool {
	subID := e.batchSeq.Add(1)
	t0 := trace.Now()
	logits, converted, tDone, err := e.forward(rt, w, sub, subID)
	w.rec.Emit(trace.Span{ID: subID, Ref: parentID, Kind: trace.KindBisect,
		Name: w.routeName, Batch: len(sub), Start: t0, Dur: tDone - t0})
	if err == nil {
		e.reply(rt, w, sub, logits, converted, time.Duration(tDone-t0))
	}
	return err == nil
}

// ResilienceSnapshot is the /stats (and Resilience()) view of the
// fault-isolation layer.
type ResilienceSnapshot struct {
	Breakers       []BreakerSnapshot `json:"breakers"`
	QuarantineSize int               `json:"quarantineSize"`
	QuarantineAdds uint64            `json:"quarantineAdds"`
	QuarantineHits uint64            `json:"quarantineHits"`
	Poisoned       int64             `json:"poisoned"`
	BisectRuns     int64             `json:"bisectRuns"`
	BisectSaved    int64             `json:"bisectSaved"`
	Culprits       int64             `json:"culprits"`
}

// BreakerSnapshot is one route's breaker state.
type BreakerSnapshot struct {
	Route          string `json:"route"`
	State          string `json:"state"`
	Transitions    uint64 `json:"transitions"`
	WindowSamples  int64  `json:"windowSamples"`
	WindowFailures int64  `json:"windowFailures"`
}

// Resilience returns a point-in-time view of the fault-isolation layer.
func (e *Engine) Resilience() ResilienceSnapshot {
	s := ResilienceSnapshot{
		QuarantineSize: e.quar.Size(),
		QuarantineAdds: e.quar.Adds(),
		QuarantineHits: e.quar.Hits(),
		Poisoned:       e.poisoned.Value(),
		BisectRuns:     e.bisectRuns.Value(),
		BisectSaved:    e.bisectSaved.Value(),
		Culprits:       e.culprits.Value(),
	}
	for _, rt := range e.routes {
		total, failed := rt.breaker.Samples()
		s.Breakers = append(s.Breakers, BreakerSnapshot{
			Route:          string(rt.name),
			State:          rt.breaker.State().String(),
			Transitions:    rt.breaker.Transitions(),
			WindowSamples:  total,
			WindowFailures: failed,
		})
	}
	return s
}
