package engine

import (
	"errors"
	"sync/atomic"

	"cbnet/internal/metrics"
	"cbnet/internal/resilience"
	"cbnet/internal/trace"
)

// ErrPoisoned is returned by Submit when the request's content fingerprint
// matches a quarantined poison pill — an input that was previously
// convicted (by batch bisection) of crashing inference. Callers should
// surface it as a client error (HTTP 422), distinct from overload: the
// request is rejected because of what it contains, not because of load.
var ErrPoisoned = errors.New("engine: input quarantined as a poison pill")

// ResilienceConfig arms the fault-isolation layer: batch bisection on
// infer failure, the poison-pill quarantine and per-route circuit breakers
// that place consults, and a retry budget bounding re-runs. The
// zero value leaves it off (failures keep today's whole-batch semantics).
type ResilienceConfig struct {
	// Enabled turns the layer on.
	Enabled bool
	// Breaker tunes the per-route circuit breakers.
	Breaker resilience.BreakerConfig
	// Budget tunes the retry-token bucket funding bisection re-runs.
	Budget resilience.BudgetConfig
	// Quarantine tunes the poison-pill fingerprint ring.
	Quarantine resilience.QuarantineConfig
}

// maxBisectDepth bounds the bisection recursion; sub-batches still failing
// at this depth fail as a group. 6 isolates a single culprit in batches up
// to 64.
const maxBisectDepth = 6

// BreakerTransition describes one circuit-breaker state change, delivered
// to OnBreaker observers (the serve layer logs it and writes a breaker span
// to its track).
type BreakerTransition struct {
	Route RouteName
	From  resilience.State
	To    resilience.State
}

// resilienceState is the engine side of the fault-isolation layer.
type resilienceState struct {
	budget *resilience.Budget
	quar   *resilience.Quarantine

	poisoned    metrics.Counter // admissions rejected by quarantine
	bisectRuns  metrics.Counter // sub-batch re-runs executed
	bisectSaved metrics.Counter // innocent requests served via bisection
	culprits    metrics.Counter // requests convicted and quarantined

	onBreaker atomic.Value // func(BreakerTransition)
}

// breakerChanged is the per-route breaker callback: it runs on whichever
// goroutine won the transition CAS (a worker observing a failure, or a
// Submit admitting the first probe). Cold path.
func (e *Engine) breakerChanged(rt *route, from, to resilience.State) {
	if fn, ok := e.res.onBreaker.Load().(func(BreakerTransition)); ok && fn != nil {
		fn(BreakerTransition{Route: rt.name, From: from, To: to})
	}
}

// OnBreaker installs the breaker-transition observer (replacing any
// previous one). The callback runs on the goroutine that won the
// transition — keep it cheap. No-op when resilience is off.
func (e *Engine) OnBreaker(fn func(BreakerTransition)) {
	if e.res == nil {
		return
	}
	e.res.onBreaker.Store(fn)
}

// BreakerOpen reports whether the named route's breaker is currently
// open. False when resilience is off or the route is unknown.
func (e *Engine) BreakerOpen(name RouteName) bool {
	if e.res == nil {
		return false
	}
	rt, ok := e.byName[name]
	if !ok || rt.breaker == nil {
		return false
	}
	return rt.breaker.State() == resilience.Open
}

// bisect isolates the culprit(s) of a failed multi-request batch by
// recursively re-running halves on the same worker (same PlanSet, same
// batch buffer). Each sub-run spends one retry-budget token; when the
// bucket runs dry — or the depth bound is hit — the remaining suspects
// fail as a group with the original error, so a hard-failing route
// degrades to exactly the pre-bisection behavior instead of amplifying
// load. Singleton failures are convicted as poison pills and quarantined,
// but only if at least one sibling from the batch was served: a
// route-wide fault fails every singleton too, and quarantining innocents
// on that evidence would turn an outage into a blocklist. Cold path —
// it only runs after a batch already failed.
func (e *Engine) bisect(rt *route, w *worker, batch []*request, parentID uint64, inferErr error) {
	served := 0
	var convicted []*request
	var run func(sub []*request, depth int)
	run = func(sub []*request, depth int) {
		if len(sub) == 0 {
			return
		}
		if depth > maxBisectDepth || !e.res.budget.Allow() {
			e.failSubBatch(rt, sub, inferErr)
			return
		}
		e.res.bisectRuns.Inc()
		if e.runSubBatch(rt, w, sub, parentID) {
			served += len(sub)
			return
		}
		if len(sub) == 1 {
			convicted = append(convicted, sub[0]) // answered below, once quarantined
			return
		}
		mid := len(sub) / 2
		run(sub[:mid], depth+1)
		run(sub[mid:], depth+1)
	}
	// The full batch is already known to fail: start from the halves.
	mid := len(batch) / 2
	run(batch[:mid], 1)
	run(batch[mid:], 1)
	e.res.bisectSaved.Add(int64(served))
	if served > 0 {
		for _, r := range convicted {
			e.res.quar.Add(r.fp)
			e.res.culprits.Inc()
		}
	}
	// A culprit hears of its failure only after the quarantine holds its
	// fingerprint: a caller that resubmits the moment it is answered is
	// turned away at admission instead of failing a second batch.
	e.failSubBatch(rt, convicted, inferErr)
}

// runSubBatch re-runs a sub-batch through the route's forward pass on the
// worker's own buffers (execBatch), delivering results on success. Returns
// false when the sub-batch still fails. Each re-run is traced as a bisect
// span whose Ref links the failed parent batch.
func (e *Engine) runSubBatch(rt *route, w *worker, sub []*request, parentID uint64) bool {
	subID := e.batchSeq.Add(1)
	t0 := trace.Now()
	tDone, err := e.execBatch(rt, w, sub, subID, t0)
	w.rec.Emit(trace.Span{ID: subID, Ref: parentID, Kind: trace.KindBisect,
		Name: w.routeName, Batch: len(sub), Start: t0, Dur: tDone - t0})
	return err == nil
}

// failSubBatch answers a group of suspects with the original infer error.
func (e *Engine) failSubBatch(rt *route, sub []*request, inferErr error) {
	for _, r := range sub {
		e.answer(rt, r, outcome{err: inferErr})
	}
}

// ResilienceSnapshot is the /stats (and Resilience()) view of the
// fault-isolation layer.
type ResilienceSnapshot struct {
	Breakers       []BreakerSnapshot `json:"breakers"`
	BudgetTokens   float64           `json:"budgetTokens"`
	BudgetSpent    uint64            `json:"budgetSpent"`
	BudgetDenied   uint64            `json:"budgetDenied"`
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

// Resilience returns a point-in-time view of the fault-isolation layer,
// or nil when it is off.
func (e *Engine) Resilience() *ResilienceSnapshot {
	if e.res == nil {
		return nil
	}
	s := &ResilienceSnapshot{
		BudgetTokens:   e.res.budget.Tokens(),
		BudgetSpent:    e.res.budget.Spent(),
		BudgetDenied:   e.res.budget.Denied(),
		QuarantineSize: e.res.quar.Size(),
		QuarantineAdds: e.res.quar.Adds(),
		QuarantineHits: e.res.quar.Hits(),
		Poisoned:       e.res.poisoned.Value(),
		BisectRuns:     e.res.bisectRuns.Value(),
		BisectSaved:    e.res.bisectSaved.Value(),
		Culprits:       e.res.culprits.Value(),
	}
	for _, rt := range e.live {
		if rt.breaker == nil {
			continue
		}
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
