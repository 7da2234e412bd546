package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/metrics"
	"cbnet/internal/resilience"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// drive pushes a few requests down both routes so every observability
// surface has data.
func drive(t *testing.T, e *Engine) {
	t.Helper()
	for i := 0; i < 4; i++ {
		for _, img := range [][]float32{easyImage(uint64(i)), hardImage(uint64(i))} {
			if _, err := e.Submit(context.Background(), Request{Pixels: img}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	e := New(testPipeline(), Config{MaxBatch: 8, Workers: 1})
	defer e.Close()
	drive(t, e)

	var buf bytes.Buffer
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// The whole page must survive the exposition linter.
	if err := metrics.LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, out)
	}

	// Engine-level and per-route series are present.
	for _, want := range []string{
		"cbnet_uptime_seconds",
		"cbnet_requests_submitted_total 8",
		"cbnet_requests_completed_total 8",
		"cbnet_requests_shed_total 0",
		"cbnet_requests_diverted_total 0",
		`cbnet_route_images_total{route="easy"}`,
		`cbnet_route_images_total{route="hard"}`,
		`cbnet_route_inflight{route="hard"} 0`,
		`cbnet_route_queue_depth{route="hard"} 0`,
		`cbnet_queue_wait_seconds_bucket{route="easy",le="+Inf"}`,
		`cbnet_infer_seconds_count{route="hard"}`,
		`cbnet_batch_size_sum{route="hard"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// One counter per fact: a request place finds no route for is shed,
	// whichever reason.
	if gone := "cbnet_requests_breaker_rejected_total"; strings.Contains(out, gone) {
		t.Errorf("exposition still carries %q", gone)
	}

	// A plan step's time and work live in its span on the worker's track,
	// not in a second set of /metrics series.
	if gone := "cbnet_plan_step_"; strings.Contains(out, gone) {
		t.Errorf("exposition still carries a %q family", gone)
	}
}

func TestRequestIDsAndTraceTracks(t *testing.T) {
	e := New(testPipeline(), Config{MaxBatch: 8, Workers: 1})
	defer e.Close()

	res, err := e.Submit(context.Background(), Request{Pixels: hardImage(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID == 0 {
		t.Error("result carries no request ID")
	}
	res2, err := e.Submit(context.Background(), Request{Pixels: hardImage(4)})
	if err != nil {
		t.Fatal(err)
	}
	if res2.RequestID == res.RequestID {
		t.Error("request IDs not unique")
	}

	tracks := e.TraceTracks()
	if len(tracks) != 2 || tracks[0].Name != "hard/worker0" || tracks[1].Name != "easy/worker0" {
		t.Fatalf("tracks %+v, want one per worker of each route, in ladder order", tracks)
	}
	kinds := map[trace.Kind]bool{}
	var sawReqID bool
	for _, tr := range tracks {
		for _, s := range tr.Spans {
			kinds[s.Kind] = true
			if s.Kind == trace.KindQueue && s.ID == res.RequestID {
				sawReqID = true
			}
		}
	}
	for _, k := range []trace.Kind{trace.KindQueue, trace.KindExecute, trace.KindRespond, trace.KindPlanStep} {
		if !kinds[k] {
			t.Errorf("no %v span recorded", k)
		}
	}
	if !sawReqID {
		t.Errorf("no queue span carries request ID %d", res.RequestID)
	}

	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tracks); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace dump is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace dump has no events")
	}
}

func TestStatsGaugesAndP95(t *testing.T) {
	e := New(testPipeline(), Config{MaxBatch: 8, Workers: 1})
	defer e.Close()
	drive(t, e)

	snap := e.Stats()
	if snap.UptimeSeconds <= 0 {
		t.Error("uptime not positive")
	}
	requireIdleGauges(t, e)
	for _, r := range snap.Routes {
		if r.Images > 0 {
			lat := r.QueueWaitMS
			if lat.P95 < lat.P50 || lat.P99 < lat.P95 {
				t.Errorf("route %s quantiles not ordered: %+v", r.Route, lat)
			}
		}
	}
}

// requireIdleGauges reports an error for every route that reads a request
// queued or in flight; every caller of the engine must hold its answer.
func requireIdleGauges(t *testing.T, e *Engine) bool {
	t.Helper()
	idle := true
	for _, r := range e.Stats().Routes {
		if r.QueueDepth != 0 || r.InFlight != 0 {
			t.Errorf("route %s idle but queueDepth=%d inflight=%d", r.Route, r.QueueDepth, r.InFlight)
			idle = false
		}
	}
	return idle
}

// TestInFlightGaugeSettlesBeforeReply: a caller that holds the answer to the
// only request in the engine — a result or an infer error — must read both
// gauges at zero. A worker that replied first and took the request off the
// gauge second lost this race on a second proc about once in a thousand
// rounds (the TestStatsGaugesAndP95 flake).
func TestInFlightGaugeSettlesBeforeReply(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const rounds = 8000
	failing := chaos.NewInjector()
	failing.SetErrorEvery(1)
	// A window longer than the test keeps the failing routes' breakers
	// closed: every round must reach a worker and fail there.
	closed := ResilienceConfig{Breaker: resilience.BreakerConfig{Window: rounds, MinSamples: rounds}}
	for name, cfg := range map[string]Config{
		"served": {MaxBatch: 1, Workers: 1},
		"failed": {MaxBatch: 1, Workers: 1, Fault: failing, Resilience: closed},
	} {
		t.Run(name, func(t *testing.T) {
			e := New(testPipeline(), cfg)
			defer e.Close()
			imgs := [][]float32{easyImage(3), hardImage(3)}
			for round := 0; round < rounds; round++ {
				_, err := e.Submit(context.Background(), Request{Pixels: imgs[round%2]})
				if cfg.Fault == nil && err != nil || cfg.Fault != nil && !errors.Is(err, ErrInferFailed) {
					t.Fatalf("round %d: Submit err = %v", round, err)
				}
				if !requireIdleGauges(t, e) {
					t.Fatalf("round %d: the only request was answered", round)
				}
			}
		})
	}
}

// gaugeProbe is a FaultInjector that reads its route's gauges from the
// worker, just before the forward pass: the earliest point at which a scrape
// can catch a request the worker already holds. With one worker per route
// nothing leaves the queue while the probe runs, so every request still in
// it, and the batch, must be in flight.
type gaugeProbe struct {
	e   *Engine
	bad atomic.Pointer[string]
}

func (p *gaugeProbe) BeforeInfer(route string, x *tensor.Tensor) error {
	batchSize := x.Shape[0]
	rt := p.e.byName[RouteName(route)]
	q := len(rt.queue)
	if in := rt.stats.inflight.Value(); in < int64(q+batchSize) {
		msg := fmt.Sprintf("route %s holds a batch of %d but queueDepth=%d inflight=%d", route, batchSize, q, in)
		p.bad.CompareAndSwap(nil, &msg)
	}
	return nil
}

// TestGaugesRiseBeforeEnqueue: a request is on the gauge before a worker
// can take it off. Submit that sent on the queue first and counted second
// let the worker decrement first, and /stats or /metrics could read
// cbnet_route_inflight at -1. The window is two
// instructions wide, so it takes the OS descheduling the submitter inside it:
// a spinning goroutine per core keeps more threads runnable than cores.
func TestGaugesRiseBeforeEnqueue(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 2))
	var stop atomic.Bool
	defer stop.Store(true)
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for !stop.Load() {
			}
		}()
	}
	probe := &gaugeProbe{}
	e := New(testPipeline(), Config{MaxBatch: 1, Workers: 1, Fault: probe})
	defer e.Close()
	probe.e = e
	imgs := [][]float32{easyImage(3), hardImage(3)}
	rounds := 20000
	if raceEnabled {
		rounds = 2000 // the spinners starve an instrumented engine
	}
	for round := 0; round < rounds; round++ {
		if _, err := e.Submit(context.Background(), Request{Pixels: imgs[round%2]}); err != nil {
			t.Fatalf("round %d: Submit err = %v", round, err)
		}
		if msg := probe.bad.Load(); msg != nil {
			t.Fatalf("round %d: %s", round, *msg)
		}
	}
}

// TestSpansAgreeWithStats: a request's stages are stamped once, so the three
// places a stage's time is reported cannot disagree. With fewer spans than a
// worker's ring holds, per route: one queue span per image served, the queue
// spans' durations sum to the queueWaitMs histogram's and the execute spans'
// to inferMs's, every Result.QueueWait and Result.Infer is the duration of
// that request's queue span and of its batch's execute span, and the queue
// span ends on the stamp the execute span starts on.
func TestSpansAgreeWithStats(t *testing.T) {
	e := New(testPipeline(), Config{MaxBatch: 4, Workers: 1})
	defer e.Close()
	const pairs = 6 // 12 requests × (queue + 2 batch spans + plan steps) stays under traceRing on either route
	results := map[uint64]Result{}
	for i := uint64(0); i < pairs; i++ {
		for _, img := range [][]float32{easyImage(i), hardImage(i)} {
			res, err := e.Submit(context.Background(), Request{Pixels: img})
			if err != nil {
				t.Fatal(err)
			}
			results[res.RequestID] = res
		}
	}
	// A caller holds its answer before the worker has written the batch's
	// execute span; Close waits the workers out.
	e.Close()
	agree := func(what string, spanNs int64, histMs float64) {
		t.Helper()
		if got := float64(spanNs) / 1e6; math.Abs(got-histMs) > 1e-9*histMs {
			t.Errorf("%s: spans sum to %v ms, histogram to %v ms", what, got, histMs)
		}
	}
	served := int64(0)
	for _, rt := range e.routes {
		var spans []trace.Span
		for _, w := range rt.workers {
			if w.rec.Dropped() != 0 {
				t.Fatalf("route %s: a single-writer ring dropped %d spans", rt.name, w.rec.Dropped())
			}
			spans = append(spans, w.rec.Snapshot()...)
		}
		if len(spans) >= traceRing {
			t.Fatalf("route %s: %d spans wrapped the ring; lower pairs", rt.name, len(spans))
		}
		execute := map[uint64]trace.Span{} // by batch ID
		for _, s := range spans {
			if s.Kind == trace.KindExecute {
				execute[s.ID] = s
			}
		}
		var queues, queueNs, executeNs int64
		for _, s := range execute {
			executeNs += s.Dur
		}
		for _, s := range spans {
			if s.Kind != trace.KindQueue {
				continue
			}
			queues++
			queueNs += s.Dur
			res, ex := results[s.ID], execute[s.Ref]
			if res.Route != string(rt.name) {
				t.Errorf("queue span of request %d on route %s, its result says %q", s.ID, rt.name, res.Route)
			}
			if int64(res.QueueWait) != s.Dur || int64(res.Infer) != ex.Dur {
				t.Errorf("request %d: Result says queue %v infer %v, its spans %v and %v",
					s.ID, res.QueueWait, res.Infer, time.Duration(s.Dur), time.Duration(ex.Dur))
			}
			if s.Start+s.Dur != ex.Start {
				t.Errorf("request %d: queue span ends at %d, batch %d's execute span starts at %d", s.ID, s.Start+s.Dur, s.Ref, ex.Start)
			}
		}
		if images := rt.stats.images(); queues != images || images == 0 {
			t.Errorf("route %s: %d queue spans for %d images", rt.name, queues, images)
		}
		served += queues
		agree(string(rt.name)+" queue wait", queueNs, rt.stats.queueWaitMS.Sum())
		agree(string(rt.name)+" infer", executeNs, rt.stats.inferMS.Sum())
	}
	if served != 2*pairs {
		t.Errorf("%d queue spans for %d requests", served, 2*pairs)
	}
}
