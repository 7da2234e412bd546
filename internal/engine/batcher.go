package engine

import (
	"errors"
	"fmt"
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
	// writes the batch's lifecycle spans (queue, batch-form, execute,
	// respond) into it, and the worker's plans append their per-step spans.
	rec *trace.Recorder
	// routeName is the pre-interned route label for execute spans.
	routeName trace.NameID
}

// route owns one admission queue, one batcher, and a pool of workers.
type route struct {
	name    RouteName
	queue   chan *request   // admission-bounded; closed by Engine.Close
	batches chan []*request // formed micro-batches; closed by the batcher
	// cost is the per-image work of the network(s) the route runs, recorded
	// here once; every modelled latency and energy figure for the route —
	// /classify, a flight dump, /metrics — is core.PriceImage of it.
	cost device.Cost
	// plans compiles one worker's PlanSet at a given batch capacity: AE +
	// classifier on the hard route, a classifier alone everywhere else.
	plans   func(batchCap int) (*core.PlanSet, error)
	workers []*worker // built by New for the routes it starts
	stats   *routeStats
	breaker *resilience.Breaker // nil unless resilience is armed
}

// newRoute constructs a route and registers it; startRoute actually
// launches its batcher and workers. The split lets DisableRouting keep
// unused routes constructed (so Close can close their queues uniformly)
// without idling goroutines on them.
func (e *Engine) newRoute(name RouteName, cost device.Cost, plans func(batchCap int) (*core.PlanSet, error)) *route {
	rt := &route{
		name:  name,
		cost:  cost,
		queue: make(chan *request, e.cfg.QueueDepth),
		// Unbuffered on purpose: a send succeeds exactly when a worker is
		// parked in receive, which is what makes the batcher
		// work-conserving (see batchLoop).
		batches: make(chan []*request),
		plans:   plans,
		stats:   e.stats.route(name),
	}
	if e.res != nil {
		rt.breaker = resilience.NewBreaker(e.cfg.Resilience.Breaker,
			func(from, to resilience.State) { e.breakerChanged(rt, from, to) })
	}
	e.routes = append(e.routes, rt)
	e.byName[name] = rt
	return rt
}

// RouteCost is one live route's per-image work under the §IV-C device model
// (device.SequentialCost of the networks it runs).
type RouteCost struct {
	Route RouteName
	Cost  device.Cost
}

// RouteCosts returns what one image costs on each live route, in
// registration order. The serve layer prices these once on its device
// profile (core.PriceImage) instead of re-deriving a route's networks.
func (e *Engine) RouteCosts() []RouteCost {
	costs := make([]RouteCost, len(e.live))
	for i, rt := range e.live {
		costs[i] = RouteCost{Route: rt.name, Cost: rt.cost}
	}
	return costs
}

// answer delivers one request's outcome and is the only send on a done
// channel. Every way a request leaves the engine after admission passes
// through here, so the books are kept in one place: a served request counts
// as completed and leaves its queue wait in the route's histogram; a request
// shed at its deadline (it was still queued) comes off the queued gauge and
// counts as expired; anything else counts as failed. The in-flight gauge
// drops before the send: a caller holding its answer must not read itself in
// flight.
func (e *Engine) answer(rt *route, r *request, out outcome) {
	switch {
	case out.err == nil:
		rt.stats.queueWaitMS.Observe(float64(out.res.QueueWait) / float64(time.Millisecond))
		e.stats.completed.Inc()
	case errors.Is(out.err, ErrDeadline):
		rt.stats.queued.Add(-1)
		e.stats.expired.Inc()
	default:
		e.stats.inferFailed.Inc()
	}
	rt.stats.inflight.Add(-1)
	r.done <- out
}

// shedExpired answers a request whose deadline passed while it sat in the
// admission queue: the caller gets ErrDeadline and the request never
// occupies a batch slot. Returns true when the request was shed.
func (e *Engine) shedExpired(rt *route, r *request) bool {
	if r.ctx == nil || r.ctx.Err() == nil {
		return false
	}
	e.answer(rt, r, outcome{err: ErrDeadline})
	return true
}

// batchLoop is the route's single coalescing goroutine. A batch opens when
// the first request arrives and is handed to a worker on the earliest of
// three triggers:
//
//   - it reaches MaxBatch;
//   - the queue is empty and a worker is idle (work-conserving flush —
//     holding requests while capacity sits idle only adds latency);
//   - the queue closes (engine shutdown).
//
// Batches therefore form exactly while all workers are occupied: under
// load they grow toward MaxBatch, and a lone request on an idle engine is
// dispatched immediately. No timer bounds the wait: a batch that is not full
// is already on offer to the next worker that frees up, and until one does
// there is nobody to run it. Requests whose context already expired are shed
// here, at batch formation, instead of wasting a worker slot. When the queue
// closes the loop flushes whatever is pending and exits, so every admitted
// request is always answered.
func (e *Engine) batchLoop(rt *route) {
	defer e.wg.Done()
	defer close(rt.batches)
	for {
		// Wait for the request that opens the next batch.
		first, ok := <-rt.queue
		if !ok {
			return
		}
		if e.shedExpired(rt, first) {
			continue
		}
		first.tOpen = trace.Now()
		batch := append(make([]*request, 0, e.cfg.MaxBatch), first)
		open, sent := true, false
		for open && !sent && len(batch) < e.cfg.MaxBatch {
			var r *request
			select {
			case r, open = <-rt.queue:
				// Work that is already queued comes before anything else.
			default:
				// Queue empty: block until more work or a parked worker.
				select {
				case r, open = <-rt.queue:
				case rt.batches <- batch:
					sent = true
					continue
				}
			}
			if open && !e.shedExpired(rt, r) {
				batch = append(batch, r)
			}
		}
		if !sent {
			rt.batches <- batch
		}
		if !open {
			return
		}
	}
}

// workerLoop executes formed batches until the batcher closes the channel.
// Each worker owns one compiled PlanSet for its lifetime, so steady-state
// batches run a flat precompiled step loop with zero heap allocations. A
// panicking forward pass fails only that batch's callers (see safeInfer) —
// the worker survives.
func (e *Engine) workerLoop(rt *route, w *worker) {
	defer e.wg.Done()
	for batch := range rt.batches {
		e.runBatch(rt, batch, w)
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
	ps.EnableTracing(w.rec, e.meter, string(rt.name))
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
		if ferr := e.fault.BeforeInfer(string(rt.name), x.Shape[0]); ferr != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrInferFailed, ferr)
		}
	}
	if e.batchFault != nil {
		if ferr := e.batchFault.BeforeInferBatch(string(rt.name), x); ferr != nil {
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

// runBatch sheds what expired since batch formation, runs the rest through
// the forward pass, gives the route's breaker its one verdict on the batch
// and then answers it, emitting the batch's lifecycle spans. The verdict is
// about the route, not the inputs: ok when the forward pass ran or bisection
// served anyone (a bad input; the route works), failed when nobody could be
// served. Bisection's re-runs are not batches and the breaker never hears of
// them, so one poison pill cannot open a breaker. Whatever happens, the
// worker survives.
func (e *Engine) runBatch(rt *route, batch []*request, w *worker) {
	// Last shed point: a deadline can expire between batch formation and a
	// worker picking the batch up (all workers wedged). Compact the batch
	// in place so dead requests don't ride the forward pass.
	live := batch[:0]
	for _, r := range batch {
		if !e.shedExpired(rt, r) {
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
	// correlation), ends the batcher's coalescing window and starts the
	// execute span, so the stages tile the request's time in the engine.
	t0 := trace.Now()
	for _, r := range batch {
		r.tRun = t0
		w.rec.Emit(trace.Span{ID: r.id, Ref: batchID, Kind: trace.KindQueue,
			Name: w.routeName, Batch: n, Start: r.tEnq, Dur: t0 - r.tEnq})
	}
	if open := batch[0].tOpen; open != 0 {
		w.rec.Emit(trace.Span{ID: batchID, Kind: trace.KindBatchForm,
			Name: w.routeName, Batch: n, Start: open, Dur: t0 - open})
	}
	rt.stats.queued.Add(-int64(n))

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
