package engine

import (
	"io"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/device"
	"cbnet/internal/metrics"
)

// WritePrometheus renders the engine's live metrics in the Prometheus text
// exposition format (version 0.0.4). The format is pinned by the golden
// test in internal/metrics and linted end-to-end by the serve tests and
// CI's scrape job. Histograms observed in milliseconds are rescaled to
// base-unit seconds on the way out.
func (e *Engine) WritePrometheus(w io.Writer) error {
	p := metrics.NewPromWriter(w)

	p.Gauge("cbnet_uptime_seconds", "Seconds since the engine started.",
		nil, time.Since(e.stats.start).Seconds())
	p.Counter("cbnet_requests_submitted_total", "Requests admitted.",
		nil, float64(e.stats.submitted.Value()))
	p.Counter("cbnet_requests_completed_total", "Requests answered.",
		nil, float64(e.stats.completed.Value()))
	p.Counter("cbnet_requests_rejected_total", "Requests shed at admission (queue full).",
		nil, float64(e.stats.rejected.Value()))
	p.Counter("cbnet_requests_shed_total", "Requests no route would take: every candidate past its spill mark or behind an open breaker.",
		nil, float64(e.stats.shed.Value()))
	p.Counter("cbnet_requests_diverted_total", "Requests placed on a route other than the preferred one (queue past its spill mark or breaker open).",
		nil, float64(e.stats.diverted.Value()))
	p.Counter("cbnet_requests_deadline_expired_total", "Requests refused or dropped because their deadline had already passed.",
		nil, float64(e.stats.expired.Value()))
	p.Counter("cbnet_infer_failures_total", "Requests failed by inference errors or recovered worker panics.",
		nil, float64(e.stats.inferFailed.Value()))
	p.Counter("cbnet_requests_abandoned_total", "Requests whose caller context expired after admission.",
		nil, float64(e.stats.abandoned.Value()))

	var state, trans []metrics.VecSample
	for _, rt := range e.routes {
		ls := metrics.Labels{metrics.L("route", string(rt.name))}
		state = append(state, metrics.VecSample{Labels: ls, Value: float64(rt.breaker.State())})
		trans = append(trans, metrics.VecSample{Labels: ls, Value: float64(rt.breaker.Transitions())})
	}
	p.GaugeVec("cbnet_breaker_state", "Circuit breaker state per route (0 closed, 1 open, 2 half-open).", state)
	p.CounterVec("cbnet_breaker_transitions_total", "Circuit breaker state changes per route.", trans)
	p.Gauge("cbnet_quarantine_size", "Poison-pill fingerprints currently quarantined.",
		nil, float64(e.quar.Size()))
	p.Counter("cbnet_quarantine_adds_total", "Poison-pill fingerprints convicted by bisection.",
		nil, float64(e.quar.Adds()))
	p.Counter("cbnet_quarantine_hits_total", "Admissions matching a quarantined fingerprint.",
		nil, float64(e.quar.Hits()))
	p.Counter("cbnet_requests_poisoned_total", "Requests rejected at admission as quarantined poison pills.",
		nil, float64(e.poisoned.Value()))
	p.Counter("cbnet_bisect_runs_total", "Sub-batch re-runs executed while isolating batch failures.",
		nil, float64(e.bisectRuns.Value()))
	p.Counter("cbnet_bisect_saved_total", "Innocent requests served by bisection that whole-batch failure would have failed.",
		nil, float64(e.bisectSaved.Value()))

	var images, batches, inflight, depth []metrics.VecSample
	var queueWait, infer, sizes []metrics.HistSample
	for _, rt := range e.routes {
		ls := metrics.Labels{metrics.L("route", string(rt.name))}
		rs := rt.stats
		images = append(images, metrics.VecSample{Labels: ls, Value: float64(rs.images())})
		batches = append(batches, metrics.VecSample{Labels: ls, Value: float64(rs.batches())})
		inflight = append(inflight, metrics.VecSample{Labels: ls, Value: float64(rs.inflight.Value())})
		depth = append(depth, metrics.VecSample{Labels: ls, Value: float64(len(rt.queue))})
		queueWait = append(queueWait, metrics.HistSample{Labels: ls, Hist: rs.queueWaitMS, Scale: 1e-3})
		infer = append(infer, metrics.HistSample{Labels: ls, Hist: rs.inferMS, Scale: 1e-3})
		sizes = append(sizes, metrics.HistSample{Labels: ls, Hist: rs.batchSizes})
	}
	p.CounterVec("cbnet_route_images_total", "Images inferred per route.", images)
	p.CounterVec("cbnet_route_batches_total", "Micro-batches executed per route.", batches)
	p.GaugeVec("cbnet_route_inflight", "Admitted requests not yet answered.", inflight)
	p.GaugeVec("cbnet_route_queue_depth", "Requests sitting in the admission channel.", depth)
	p.HistogramVec("cbnet_queue_wait_seconds", "Admission-to-execution wait per request.", queueWait)
	p.HistogramVec("cbnet_infer_seconds", "Forward-pass time per micro-batch.", infer)
	p.HistogramVec("cbnet_batch_size", "Micro-batch size distribution.", sizes)

	// Energy: each route's recorded per-image cost, priced on every
	// shipped edge profile (Pi 4 / cloud instance / K80) by core.PriceImage —
	// the same figure /classify answers with on the server's own profile —
	// and scaled by the images the route has served. A device model, not a
	// measurement: the x86 host reports what the served mix would have cost
	// at the edge. Cold path — nothing here touches the workers.
	var joules, perImage, perImageSecs []metrics.VecSample
	for _, prof := range device.All() {
		for i, rt := range e.routes {
			secs, j, err := core.PriceImage(prof, rt.cost)
			if err != nil {
				continue
			}
			ls := metrics.Labels{metrics.L("device", prof.Name), metrics.L("route", string(rt.name))}
			joules = append(joules, metrics.VecSample{Labels: ls, Value: j * images[i].Value})
			perImage = append(perImage, metrics.VecSample{Labels: ls, Value: j})
			perImageSecs = append(perImageSecs, metrics.VecSample{Labels: ls, Value: secs})
		}
	}
	p.CounterVec("cbnet_energy_joules_total", "Modelled energy of the images each route has served, on each device profile (per-image model × route images).", joules)
	p.GaugeVec("cbnet_energy_joules_per_image", "Modelled per-image energy of each route on each device profile (§IV-C layer model).", perImage)
	p.GaugeVec("cbnet_energy_seconds_per_image", "Modelled per-image latency of each route on each device profile (§IV-C layer model).", perImageSecs)

	return p.Err()
}
