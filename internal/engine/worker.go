package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// RouteName identifies one of the engine's inference paths.
type RouteName string

const (
	// RouteEasy is the classifier-only path for low-hardness images.
	RouteEasy RouteName = "easy"
	// RouteHard is the full AE+classifier path.
	RouteHard RouteName = "hard"
)

// traceRing is the capacity of each worker's span ring buffer (recent spans
// served by /debug/trace). Tracing is always on — span emission is a handful
// of atomic stores per plan step, bounded at <2% of plan execution by the
// regression tests.
const traceRing = 256

// worker is one inference goroutine's private state. The serving path runs
// on compiled execution plans — ps is the worker's own PlanSet, sized to
// MaxBatch and compiled in New, so steady-state batches execute with zero
// heap allocations and no cross-worker sharing.
type worker struct {
	ps *core.PlanSet

	// buf backs the batch input tensor; x is the reusable header over it,
	// resliced to the live batch size each round.
	buf   []float32
	x     tensor.Tensor
	preds []int

	// rec is the worker's span ring, one track of /debug/trace: runBatch
	// writes the batch's lifecycle spans (queue, execute, respond) into it,
	// and the worker's plans append their per-step spans.
	rec *trace.Recorder
	// routeName is the pre-interned route label for execute spans.
	routeName trace.NameID
}

// route owns one admission queue and a pool of workers that pull their
// batches from it.
type route struct {
	name  RouteName
	queue chan *request // admission-bounded; closed by Engine.Close
	// cost is the per-image work of the network(s) the route runs, recorded
	// here once; every modelled latency and energy figure for the route —
	// /classify, a flight dump, /metrics — is core.PriceImage of it.
	cost device.Cost
	// plans compiles one worker's PlanSet at a given batch capacity: AE +
	// classifier on the hard route, a classifier alone everywhere else.
	plans   func(batchCap int) (*core.PlanSet, error)
	workers []*worker // built by New
	stats   *routeStats
	breaker *resilience.Breaker // nil unless resilience is armed
}

// newRoute constructs a route and registers it at the end of the ladder.
func (e *Engine) newRoute(name RouteName, cost device.Cost, plans func(batchCap int) (*core.PlanSet, error)) *route {
	rt := &route{
		name:  name,
		cost:  cost,
		queue: make(chan *request, e.cfg.QueueDepth),
		plans: plans,
		stats: e.stats.route(name),
	}
	if e.res != nil {
		rt.breaker = resilience.NewBreaker(e.cfg.Resilience.Breaker,
			func(from, to resilience.State) { e.breakerChanged(rt, from, to) })
	}
	e.routes = append(e.routes, rt)
	e.byName[name] = rt
	return rt
}

// RouteCost is one route's per-image work under the §IV-C device model
// (device.SequentialCost of the networks it runs).
type RouteCost struct {
	Route RouteName
	Cost  device.Cost
}

// RouteCosts returns what one image costs on each route, in ladder order.
// The serve layer prices these once on its device profile (core.PriceImage)
// instead of re-deriving a route's networks.
func (e *Engine) RouteCosts() []RouteCost {
	costs := make([]RouteCost, len(e.routes))
	for i, rt := range e.routes {
		costs[i] = RouteCost{Route: rt.name, Cost: rt.cost}
	}
	return costs
}

// answer delivers one request's outcome and is the only send on a done
// channel. Every way a request leaves the engine after admission passes
// through here, so the books are kept in one place: a served request counts
// as completed and leaves its queue wait in the route's histogram; a request
// shed at its deadline counts as expired; one shed because its caller
// cancelled was counted as abandoned by Submit already; anything else counts
// as failed. The in-flight gauge drops before the send: a caller holding its
// answer must not read itself in flight.
func (e *Engine) answer(rt *route, r *request, out outcome) {
	switch {
	case out.err == nil:
		rt.stats.queueWaitMS.Observe(float64(out.res.QueueWait) / float64(time.Millisecond))
		e.stats.completed.Inc()
	case errors.Is(out.err, ErrDeadline):
		e.stats.expired.Inc()
	case errors.Is(out.err, context.Canceled):
	default:
		e.stats.inferFailed.Inc()
	}
	rt.stats.inflight.Add(-1)
	r.done <- out
}

// shed answers a request whose context ended while it sat in the queue —
// ErrDeadline for a passed deadline, context.Canceled for a hang-up — and
// reports whether it did.
func (e *Engine) shed(rt *route, r *request) bool {
	if r.ctx == nil || r.ctx.Err() == nil {
		return false
	}
	err := r.ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		err = ErrDeadline
	}
	e.answer(rt, r, outcome{err: err})
	return true
}

// workerLoop pulls batches straight from the route's queue: it blocks for
// the request that opens a batch, then takes whatever else is already
// queued, up to MaxBatch, without waiting. Batches thus grow exactly while
// the workers are busy, and a lone request on an idle route runs at once. A
// closed queue still hands out what it holds, so the loop answers every
// admitted request before it exits. The worker reuses one PlanSet and one
// batch slice, so steady-state batches allocate nothing; a panicking
// forward pass fails only that batch's callers (see safeInfer).
func (e *Engine) workerLoop(rt *route, w *worker) {
	defer e.wg.Done()
	batch := make([]*request, 0, e.cfg.MaxBatch)
	for first := range rt.queue {
		batch = append(batch[:0], first)
		for len(batch) < e.cfg.MaxBatch {
			var r *request
			select {
			case r = <-rt.queue: // nil once closed and drained
			default:
			}
			if r == nil {
				break
			}
			batch = append(batch, r)
		}
		e.runBatch(rt, batch, w)
		clear(batch) // the answered requests must not stay reachable from here
		// Let the callers just answered resubmit before the queue is drained
		// again. On engine_mixed_c32 (32 callers, 2-core Xeon, two workers
		// per route) this one yield takes the mean batch from 1.03 to 6.6,
		// raw imgs_per_s from 33–35 k to 57–73 k and raw CPU per image from
		// 0.057 to 0.027–0.032 ms.
		runtime.Gosched()
	}
}

// newWorker builds one worker's private state: batch buffers, a compiled
// PlanSet, and a span recorder wired into both the lifecycle spans and the
// plans' per-step spans. It panics when the route's network
// does not compile: New calls it before any goroutine starts, so that is a
// configuration panic like a nameless variant. The zero-alloc regression
// test reuses this exact wiring, so the traced production path is what gets
// measured.
func (e *Engine) newWorker(rt *route) *worker {
	ps, err := rt.plans(e.cfg.MaxBatch)
	if err != nil {
		panic(fmt.Sprintf("engine: route %q: %v", rt.name, err))
	}
	w := &worker{
		ps:        ps,
		buf:       make([]float32, e.cfg.MaxBatch*dataset.Pixels),
		preds:     make([]int, e.cfg.MaxBatch),
		rec:       trace.NewRecorder(traceRing),
		routeName: trace.Intern(string(rt.name)),
	}
	w.x = tensor.Tensor{Shape: []int{0, dataset.Pixels}}
	ps.EnableTracing(w.rec)
	return w
}

// safeInfer runs the route's forward pass (after the fault-injection hook,
// if any), converting a panic or injected error into ErrInferFailed so the
// worker can fail the batch's callers and keep serving. The recover path
// allocates; the happy path does not.
func (e *Engine) safeInfer(rt *route, w *worker, x *tensor.Tensor) (logits, converted *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			logits, converted = nil, nil
			err = fmt.Errorf("%w: route %s: panic: %v", ErrInferFailed, rt.name, p)
		}
	}()
	if e.fault != nil {
		if ferr := e.fault.BeforeInfer(string(rt.name), x); ferr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrInferFailed, ferr)
		}
	}
	logits, converted = w.ps.Logits(x)
	return logits, converted, nil
}

// forward assembles the batch tensor in the worker's buffer and runs the
// route's forward pass on its plans under trace ID id. It answers nobody and
// tells the breaker nothing: the caller replies, bisects or fails the batch.
// tDone is the stamp taken at the end of the forward pass; the caller's span,
// Result.Infer and the inferMs sample are all tDone minus its own start
// stamp. The tensors are the plans' buffers, overwritten by the next run.
func (e *Engine) forward(rt *route, w *worker, batch []*request, id uint64) (logits, converted *tensor.Tensor, tDone int64, err error) {
	n := len(batch)
	w.x.Shape[0] = n
	w.x.Data = w.buf[:n*dataset.Pixels]
	for i, r := range batch {
		copy(w.x.Data[i*dataset.Pixels:(i+1)*dataset.Pixels], r.pixels)
	}
	w.ps.SetTraceID(id)
	logits, converted, err = e.safeInfer(rt, w, &w.x)
	return logits, converted, trace.Now(), err
}

// reply answers every request of a batch whose forward pass ran. Everything
// a requester keeps (class, converted image) is extracted or copied here,
// because the next batch reuses the plan buffers.
func (e *Engine) reply(rt *route, w *worker, batch []*request, logits, converted *tensor.Tensor, infer time.Duration) {
	n := len(batch)
	preds := w.preds[:n]
	logits.ArgMaxRows(preds)
	rt.stats.observeBatch(n, infer)
	for i, r := range batch {
		res := Result{
			RequestID: r.id,
			Class:     preds[i],
			Route:     string(rt.name),
			Hardness:  r.hardness,
			BatchSize: n,
			QueueWait: time.Duration(r.tRun - r.tEnq),
			Infer:     infer,
		}
		if r.wantConverted && converted != nil {
			res.Converted = append([]float32(nil), converted.Data[i*dataset.Pixels:(i+1)*dataset.Pixels]...)
		}
		e.answer(rt, r, outcome{res: res})
	}
}

// runBatch sheds the requests whose callers are gone, runs the rest through
// the forward pass, gives the route's breaker its one verdict on the batch
// and then answers it, emitting the batch's lifecycle spans. The verdict is
// about the route, not the inputs: ok when the forward pass ran or bisection
// served anyone (a bad input; the route works), failed when nobody could be
// served. Bisection's re-runs are not batches and the breaker never hears of
// them, so one poison pill cannot open a breaker. Whatever happens, the
// worker survives.
func (e *Engine) runBatch(rt *route, batch []*request, w *worker) {
	// The one shed point after admission: a context can end while its
	// request waits behind busy workers. Compact the batch in place so dead
	// requests don't ride the forward pass.
	live := batch[:0]
	for _, r := range batch {
		if !e.shed(rt, r) {
			live = append(live, r)
		}
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	n := len(batch)
	batchID := e.batchSeq.Add(1)

	// One stamp ends every request's queue wait (Ref = batch ID for
	// correlation) and starts the execute span, so the stages tile the
	// request's time in the engine.
	t0 := trace.Now()
	for _, r := range batch {
		r.tRun = t0
		w.rec.Emit(trace.Span{ID: r.id, Ref: batchID, Kind: trace.KindQueue,
			Name: w.routeName, Batch: n, Start: r.tEnq, Dur: t0 - r.tEnq})
	}

	logits, converted, tExec, inferErr := e.forward(rt, w, batch, batchID)
	w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindExecute,
		Name: w.routeName, Batch: n, Start: t0, Dur: tExec - t0})
	var failed []*request
	if inferErr != nil {
		// With resilience armed, a multi-request batch is bisected so only
		// the culprit fails; otherwise (or for singletons, where there is
		// nothing to split) the batch's callers fail. The next batch is a
		// fresh plan run.
		failed = batch
		if e.res != nil && n > 1 {
			failed = e.bisect(rt, w, batch, batchID)
		}
	}
	// Before the answers: a caller holding a failure must find the breaker
	// already knows of it.
	if rt.breaker != nil {
		rt.breaker.Observe(len(failed) < n)
	}
	if inferErr == nil {
		e.reply(rt, w, batch, logits, converted, time.Duration(tExec-t0))
	}
	for _, r := range failed {
		e.answer(rt, r, outcome{err: inferErr})
	}
	w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindRespond,
		Name: w.routeName, Batch: n, Start: tExec, Dur: trace.Now() - tExec})
}
