package engine

import (
	"time"

	"cbnet/internal/metrics"
)

// engineStats is the engine's live metric store, built on the lock-free
// primitives in internal/metrics. Per-route stores live in a map populated
// while New constructs routes (single-goroutine) and read-only afterwards.
type engineStats struct {
	start       time.Time
	submitted   metrics.Counter // admitted requests
	completed   metrics.Counter // answered requests
	rejected    metrics.Counter // ErrOverloaded at admission (queue full)
	shed        metrics.Counter // ErrOverloaded from place: no route had room or an admitting breaker
	diverted    metrics.Counter // placed on a route other than the preferred one
	expired     metrics.Counter // ErrDeadline at admission or when a worker took the request
	inferFailed metrics.Counter // requests failed by infer errors / recovered panics
	abandoned   metrics.Counter // caller ctx expired after admission
	routes      map[RouteName]*routeStats
}

// routeStats is one route's store. Its batch-size histogram is the one
// record of the route's batches: images and batches are its Sum and Count.
type routeStats struct {
	inflight    metrics.Gauge // admitted, result not yet delivered
	batchSizes  *metrics.Histogram
	queueWaitMS *metrics.Histogram
	inferMS     *metrics.Histogram
}

func newEngineStats() *engineStats {
	return &engineStats{
		start:  time.Now(),
		routes: make(map[RouteName]*routeStats),
	}
}

// route returns (creating on first use) the stats store for a route name.
// Only called from New's single goroutine while routes are registered.
func (s *engineStats) route(name RouteName) *routeStats {
	if rs, ok := s.routes[name]; ok {
		return rs
	}
	sizeBounds := []float64{1, 2, 4, 8, 16, 32, 64, 128}
	rs := &routeStats{
		batchSizes:  metrics.NewHistogram(sizeBounds...),
		queueWaitMS: metrics.NewHistogram(metrics.ExponentialBounds(0.01, 2, 20)...),
		inferMS:     metrics.NewHistogram(metrics.ExponentialBounds(0.01, 2, 20)...),
	}
	s.routes[name] = rs
	return rs
}

func (r *routeStats) observeBatch(n int, infer time.Duration) {
	r.batchSizes.Observe(float64(n))
	r.inferMS.Observe(float64(infer) / float64(time.Millisecond))
}

// images is how many images the route has inferred: the sum of its batch
// sizes, exact while it stays below 2⁵³.
func (r *routeStats) images() int64 { return int64(r.batchSizes.Sum()) }

// batches is how many batches the route has executed.
func (r *routeStats) batches() int64 { return r.batchSizes.Count() }

// RouteSnapshot is the exported per-route stats view.
type RouteSnapshot struct {
	Route         string           `json:"route"`
	Images        int64            `json:"images"`
	Batches       int64            `json:"batches"`
	MeanBatchSize float64          `json:"meanBatchSize"`
	BatchSizeHist []metrics.Bucket `json:"batchSizeHist"`
	// QueueDepth counts admitted requests no worker has taken yet;
	// InFlight counts admitted requests not yet answered.
	QueueDepth  int             `json:"queueDepth"`
	QueueCap    int             `json:"queueCap"`
	InFlight    int64           `json:"inFlight"`
	QueueWaitMS LatencySnapshot `json:"queueWaitMs"`
	InferMS     LatencySnapshot `json:"inferMs"`
}

// LatencySnapshot summarises one latency histogram.
type LatencySnapshot struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

func latencySnapshot(h *metrics.Histogram) LatencySnapshot {
	return LatencySnapshot{
		Mean: h.Mean(),
		P50:  h.Quantile(0.5),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
	}
}

// Snapshot is the engine-wide stats view served by /stats.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Submitted     int64   `json:"submitted"`
	Completed     int64   `json:"completed"`
	Rejected      int64   `json:"rejected"`
	// Rejected counts requests that found their route's queue full at the
	// send; Shed counts requests no route would take (every candidate past
	// its spill mark or behind an open breaker); Diverted counts requests
	// answered by a route other than the one they preferred, for either
	// reason; DeadlineExpired counts requests refused (admission) or
	// dropped (by the worker that took them) because their deadline had
	// already passed; InferFailed counts requests failed by inference errors or
	// recovered worker panics.
	Shed             int64           `json:"shed"`
	Diverted         int64           `json:"diverted"`
	DeadlineExpired  int64           `json:"deadlineExpired"`
	InferFailed      int64           `json:"inferFailed"`
	Abandoned        int64           `json:"abandoned"`
	ThroughputPerSec float64         `json:"throughputPerSec"`
	Routes           []RouteSnapshot `json:"routes"`
	// Ladder lists the route names in the order place walks them.
	Ladder     []string           `json:"ladder"`
	Resilience ResilienceSnapshot `json:"resilience"`
}

// Stats returns a point-in-time view of the engine's counters and
// histograms. Under concurrent load individual fields may be mutually
// slightly stale; totals are never lost.
func (e *Engine) Stats() Snapshot {
	uptime := time.Since(e.stats.start).Seconds()
	snap := Snapshot{
		UptimeSeconds:   uptime,
		Submitted:       e.stats.submitted.Value(),
		Completed:       e.stats.completed.Value(),
		Rejected:        e.stats.rejected.Value(),
		Shed:            e.stats.shed.Value(),
		Diverted:        e.stats.diverted.Value(),
		DeadlineExpired: e.stats.expired.Value(),
		InferFailed:     e.stats.inferFailed.Value(),
		Abandoned:       e.stats.abandoned.Value(),
		Ladder:          e.DegradeLadder(),
		Resilience:      e.Resilience(),
	}
	if uptime > 0 {
		snap.ThroughputPerSec = float64(snap.Completed) / uptime
	}
	for _, rt := range e.routes {
		rs := rt.stats
		r := RouteSnapshot{
			Route:         string(rt.name),
			Images:        rs.images(),
			Batches:       rs.batches(),
			BatchSizeHist: rs.batchSizes.Buckets(),
			QueueDepth:    len(rt.queue),
			QueueCap:      cap(rt.queue),
			InFlight:      rs.inflight.Value(),
			QueueWaitMS:   latencySnapshot(rs.queueWaitMS),
			InferMS:       latencySnapshot(rs.inferMS),
		}
		if r.Batches > 0 {
			r.MeanBatchSize = float64(r.Images) / float64(r.Batches)
		}
		snap.Routes = append(snap.Routes, r)
	}
	return snap
}
