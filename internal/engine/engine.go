// Package engine implements a batched concurrent inference engine over a
// CBNet pipeline — the serving layer the paper's edge-deployment story
// needs once a device handles more than one client.
//
// Callers submit single images; a route's workers pull them from its queue
// in micro-batches (see workerLoop) and answer each caller individually.
// Two properties make it faster than the naive one-request-one-forward loop:
//
//   - Batching: a 32-row GEMM amortises im2col/weight traffic far better
//     than 32 one-row forwards.
//   - Hardness-aware routing: the §V heuristic (generalize.HardnessScore,
//     cut at DefaultHardnessThreshold) sends easy images straight to the
//     lightweight classifier, skipping the autoencoder's share of pipeline
//     latency entirely; hard images, and any request that asks for the
//     converted image, take the full AE+classifier path. Each route has its
//     own queue and workers so slow hard batches never stall easy traffic.
//
// Beyond the built-in easy/hard pair, the engine hosts variant routes —
// arbitrary pixels→logits networks (pruned, early-exit, SubFlow/AdaDeep
// family members) compiled into plans. Together they form one ladder, hard →
// easy → variants, ordered from the paper-faithful path to the cheapest.
//
// One function, place (router.go), gives each request its route or the
// reason it has none, from the request and the routes' state at that
// moment: an expired context is ErrDeadline, a quarantined input is
// ErrPoisoned, and otherwise the request takes the first route — starting
// at the one its hardness score prefers — whose queue is under spillMark
// and whose circuit breaker admits (Config.Resilience); none is
// ErrOverloaded. Overload therefore costs the overflow its accuracy
// before it costs anyone an answer, and there is no controller, level or
// timer behind the decision.
//
// Admission is bounded: when a route's queue is full, Submit fails fast
// with ErrOverloaded so the caller can shed load instead of piling up
// goroutines. A request whose context ended while it was queued is shed by
// the worker that takes it, so it never occupies a batch slot. Close drains
// every accepted request before returning.
//
// A request's time in the engine is written down once. Each stage boundary
// — admission, a worker taking its batch, the end of the forward pass, the
// last reply — is one trace.Now() reading, and the worker's spans (queue,
// execute, respond, plan steps), the Result's QueueWait and Infer and the
// two latency histograms are all differences of those readings, so they
// cannot disagree and adjacent stages add up (see Result for what each
// covers). Every admitted request is answered in one function, answer,
// which owns the done-channel send and the gauge, counter and histogram
// bookkeeping that goes with it. Any goroutine may write a worker's span
// ring; /debug/trace reads the rings by walking every route's workers
// (TraceTracks).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/nn"
	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// ErrOverloaded is returned by Submit when no route would take the request
// (every candidate past its spill mark or behind an open breaker) or the
// chosen route's admission queue is full. Callers should surface it as
// backpressure (HTTP 503).
var ErrOverloaded = errors.New("engine: overloaded, queue full")

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("engine: closed")

// ErrDeadline is returned by Submit when the request's context deadline
// had already expired at admission or by the time a worker took it from the
// queue; the request consumed no inference capacity. Callers should surface
// it as a timeout (HTTP 504), distinct from load shedding.
var ErrDeadline = errors.New("engine: request deadline expired")

// ErrInferFailed is returned by Submit when the batch's forward pass
// failed — an injected fault or a recovered worker panic. The worker
// survives; only the failing batch's callers see the error.
var ErrInferFailed = errors.New("engine: inference failed")

// DefaultHardnessThreshold splits easy from hard images on the
// generalize.HardnessScore scale. Calibrated against the generator: clean
// renders score around 0.4–1.0 (p95 ≤ 1.01 across all three families)
// while degraded renders centre near 1.2; see the router tests for the
// calibration check.
const DefaultHardnessThreshold = 1.05

// FaultInjector intercepts every batch just before its forward pass, with
// the assembled batch tensor in hand; the chaos harness (internal/chaos)
// implements it to inject latency, errors, panics and content-keyed faults
// (a poison pixel value that panics any batch containing it, the way a
// malformed input would) through the exact path real faults would take. A
// returned error or a panic fails the batch's callers with ErrInferFailed;
// the worker itself always survives.
type FaultInjector interface {
	BeforeInfer(route string, x *tensor.Tensor) error
}

// Variant registers one extra inference route: a standalone pixels→logits
// network from the compression family (pruned lightweight, SubFlow or
// AdaDeep subnet, a different early exit). The engine compiles it into a
// plan per worker exactly like the built-in routes; traffic reaches it when
// place finds the routes before it on the ladder full or broken.
type Variant struct {
	// Name labels the route in stats and metrics. Must be
	// non-empty and distinct from "easy", "hard", and other variants.
	Name RouteName
	// Net maps a (batch × 784) pixel tensor to (batch × classes) logits.
	Net *nn.Sequential
}

// Config tunes the engine. The zero value is usable: every field has a
// sensible default applied by New.
type Config struct {
	// MaxBatch caps how many queued requests a worker takes into one
	// batch. Default 32.
	MaxBatch int
	// Workers is the number of inference goroutines per route. Default
	// max(1, GOMAXPROCS), so any one route can use every core: under a
	// load that is all hard images, the AE route alone fills the machine.
	Workers int
	// QueueDepth bounds each route's admission queue; a route stops taking
	// new requests at half of it (spillMark), and a queue found full at
	// the send makes Submit return ErrOverloaded. Default 256.
	QueueDepth int
	// Variants adds extra compiled routes beyond the easy/hard pair.
	// New panics on duplicate or reserved names and nil networks.
	Variants []Variant
	// Fault, when non-nil, intercepts every batch before its forward pass
	// (see FaultInjector). Testing and chaos drills only.
	Fault FaultInjector
	// Resilience arms the fault-isolation layer: batch bisection,
	// poison-pill quarantine and per-route circuit breakers. Off by default
	// — the zero value keeps whole-batch failure semantics.
	Resilience ResilienceConfig
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Workers <= 0 {
		c.Workers = max(1, runtime.GOMAXPROCS(0))
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// Request is one image to classify.
type Request struct {
	// ID, when non-zero, is a caller-issued correlation ID from
	// IssueRequestID. The serve layer issues IDs before validation so
	// rejected requests (400/413/503) still carry a requestId in logs and
	// responses; zero lets Submit assign one.
	ID uint64
	// Pixels is the flattened 28×28 image in [0,1].
	Pixels []float32
	// IncludeConverted asks for the autoencoder's output image. Setting
	// it forces the full AE route regardless of hardness, since the easy
	// route never produces a conversion.
	IncludeConverted bool
}

// Result is the engine's answer for one request.
type Result struct {
	// RequestID is the engine-assigned correlation ID; lifecycle spans in
	// /debug/trace carry it, and the serve layer logs it per request.
	RequestID uint64
	// Class is the predicted label.
	Class int
	// Route names the path taken ("easy", "hard", or a variant name).
	Route string
	// Hardness is the request's heuristic score, whichever route answered.
	Hardness float64
	// BatchSize is the size of the micro-batch this request rode in.
	BatchSize int
	// QueueWait is the time from admission to the moment a worker picked the
	// request's batch up: its queue span's duration, and its sample in
	// cbnet_queue_wait_seconds.
	QueueWait time.Duration
	// Infer is the time the worker then spent on the whole batch — copying
	// the images into the batch tensor and the forward pass — up to the last
	// plan step's end: the batch's execute (or, re-run after a failure,
	// bisect) span's duration, and its sample in cbnet_infer_seconds.
	Infer time.Duration
	// Converted is the AE output image, set only when requested.
	Converted []float32
}

// outcome is what a worker delivers to one waiting caller: a result or a
// terminal error.
type outcome struct {
	res Result
	err error
}

// request is the internal unit flowing through a route. Its stamps are
// trace.Now() readings, each taken once where the stage boundary is crossed;
// spans, Result durations and histogram samples are all differences of them.
type request struct {
	id            uint64
	ctx           context.Context // caller context; checked again when a worker takes the request
	pixels        []float32
	wantConverted bool
	hardness      float64
	tEnq          int64        // admission
	tRun          int64        // a worker took the batch: queue wait ends, execution starts
	done          chan outcome // buffered(1): answer never blocks
}

// Engine coalesces single-image requests into batched forward passes.
type Engine struct {
	cfg  Config
	pipe *core.Pipeline
	// routes is every route, registered in the order place walks them:
	// hard, easy, then the variants. Fixed at New, so reads need no lock.
	routes []*route
	byName map[RouteName]*route
	easy   *route
	hard   *route
	stats  *engineStats
	res    *resilienceState
	fault  FaultInjector

	// reqID and batchSeq issue the correlation IDs carried by lifecycle
	// spans.
	reqID    atomic.Uint64
	batchSeq atomic.Uint64

	mu     sync.RWMutex // guards closed and the queue-close handoff
	closed bool
	wg     sync.WaitGroup // workers
}

// New builds and starts an engine over a trained pipeline. It panics on
// structurally invalid Variants — programmer configuration, not runtime
// input.
func New(pipe *core.Pipeline, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:    cfg,
		pipe:   pipe,
		stats:  newEngineStats(),
		byName: make(map[RouteName]*route),
		fault:  cfg.Fault,
	}
	if cfg.Resilience.Enabled {
		// Built before the routes so newRoute can attach a breaker to
		// each as it is constructed.
		e.res = &resilienceState{quar: resilience.NewQuarantine()}
	}
	// The one place a route is paired with what an image costs on it: the
	// AE pipeline, the classifier alone, a variant's own network.
	e.hard = e.newRoute(RouteHard, pipe.Cost(), pipe.Plans)
	e.easy = e.newRoute(RouteEasy, pipe.DirectCost(), classifierPlans(pipe.Classifier))
	for _, v := range cfg.Variants {
		if v.Name == "" || v.Net == nil {
			panic(fmt.Sprintf("engine: variant %q needs a name and a network", v.Name))
		}
		if _, dup := e.byName[v.Name]; dup {
			panic(fmt.Sprintf("engine: duplicate route name %q", v.Name))
		}
		// Refused here, by route name, before SequentialCost would panic
		// naming only the network.
		if _, err := nn.Compile(v.Net, 1); err != nil {
			panic(fmt.Sprintf("engine: route %q: %v", v.Name, err))
		}
		e.newRoute(v.Name, device.SequentialCost(v.Net), classifierPlans(v.Net))
	}
	// Every worker's plans compile before any goroutine starts, so a
	// network the compiler rejects panics here, in the caller of New.
	for _, rt := range e.routes {
		for i := 0; i < cfg.Workers; i++ {
			rt.workers = append(rt.workers, e.newWorker(rt))
		}
	}
	// Workers × routes are this process's parallelism. At the default each
	// route alone has a worker per core, so whichever route the load falls
	// on can use the whole machine; a compiled plan runs on its worker's
	// goroutine and fans out no further, at any width.
	e.wg.Add(len(e.routes) * cfg.Workers)
	for _, rt := range e.routes {
		for _, w := range rt.workers {
			go e.workerLoop(rt, w)
		}
	}
	return e
}

// classifierPlans compiles net alone into a worker's plan set: the shape of
// every route that runs no autoencoder.
func classifierPlans(net *nn.Sequential) func(batchCap int) (*core.PlanSet, error) {
	return func(batchCap int) (*core.PlanSet, error) { return core.PlanSetFor(net, batchCap) }
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// IssueRequestID hands out the next correlation ID. The serve layer calls
// it on arrival — before decoding or admission — so every response and log
// record carries a requestId even when the request never reaches Submit.
func (e *Engine) IssueRequestID() uint64 { return e.reqID.Add(1) }

// Submit classifies one image, blocking until its batch completes, ctx is
// done, or admission fails: place refuses the request, or the queue of the
// route it chose is full at the send. A request rejected with ErrOverloaded,
// ErrPoisoned or ErrDeadline consumed no inference capacity. If ctx ends
// after admission the request is executed only if a worker takes it first;
// the worker sheds it otherwise.
func (e *Engine) Submit(ctx context.Context, req Request) (Result, error) {
	if len(req.Pixels) != dataset.Pixels {
		return Result{}, fmt.Errorf("engine: got %d pixels, want %d", len(req.Pixels), dataset.Pixels)
	}
	id := req.ID
	if id == 0 {
		id = e.IssueRequestID()
	}
	r := &request{
		id:            id,
		ctx:           ctx,
		pixels:        req.Pixels,
		wantConverted: req.IncludeConverted,
		done:          make(chan outcome, 1),
	}
	rt, diverted, err := e.place(r)
	if err != nil {
		return Result{}, err
	}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Result{}, ErrClosed
	}
	r.tEnq = trace.Now()
	// On the gauge before on the queue: a worker that answers the request at
	// once takes it off again, and a scrape in between must not read -1.
	rt.stats.inflight.Inc()
	select {
	case rt.queue <- r:
		e.mu.RUnlock()
	default:
		rt.stats.inflight.Add(-1)
		e.mu.RUnlock()
		e.stats.rejected.Inc()
		return Result{}, ErrOverloaded
	}
	// Counted once the request is on a queue: a diversion refused at the
	// send is a rejection, not an answer from another route.
	if diverted {
		e.stats.diverted.Inc()
	}
	e.stats.submitted.Inc()

	select {
	case out := <-r.done:
		if !errors.Is(out.err, context.Canceled) {
			return out.res, out.err // res is zero beside an error
		}
		// Shed by a worker before this select saw the cancellation.
	case <-ctx.Done():
	}
	e.stats.abandoned.Inc()
	return Result{}, ctx.Err()
}

// Close stops admission, drains every accepted request through the
// workers, and waits for all engine goroutines to exit. It is idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	for _, rt := range e.routes {
		close(rt.queue)
	}
	e.mu.Unlock()
	e.wg.Wait()
}
