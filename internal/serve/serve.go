// Package serve exposes a trained CBNet pipeline over HTTP — the deployment
// shape the paper targets (DNN inference serving on a single edge device).
//
// Endpoints:
//
//	GET  /healthz       liveness probe
//	GET  /readyz        readiness probe: 503 with machine-readable reasons
//	                    while draining, while no route has queue room, or
//	                    while a serving route's circuit breaker is open
//	GET  /info          model and device-profile metadata
//	GET  /stats         inference-engine counters, batch histograms, latencies
//	GET  /metrics       Prometheus text exposition (per-route counters,
//	                    latency histograms, modelled per-route energy on
//	                    each device profile, SLO burn rates)
//	GET  /slo           machine-readable SLO verdict: per-objective budget
//	                    remaining and multi-window burn rates
//	GET  /debug/trace   recent spans as Chrome trace-event JSON — the
//	                    "serve" track (one bar per request, admission to
//	                    reply) above one track per engine worker (queue,
//	                    execute, respond, and one span per plan step with
//	                    its FLOPs and bytes); load in Perfetto or
//	                    chrome://tracing
//	GET  /debug/flight  flight-recorder dump: the serve track as a list of
//	                    request outcomes + the /debug/trace document +
//	                    queue gauges + SLO state + log tail
//	GET  /debug/pprof   Go profiler, only when Options.EnablePprof is set
//	POST /classify  classify one image; accepts either
//	                  application/json  {"pixels": [784 floats in 0..1]}
//	                  image/png         a 28×28 grayscale (or color) PNG
//	                                    (any case, parameters ignored)
//	                and returns prediction, route taken, per-stage latency
//	                and energy estimates and optionally the converted image.
//
// Requests are served through an internal/engine batching engine: concurrent
// /classify calls coalesce into micro-batches, easy images skip the
// autoencoder (hardness-aware routing), and a full admission queue surfaces
// as 503 Service Unavailable so clients back off instead of piling on.
//
// A /classify call may carry a deadline in the X-CBNet-Deadline-Ms header;
// it bounds the request's end-to-end time, and a request whose deadline
// expires before its batch runs is answered 504 without consuming inference
// capacity. A call without the header has no deadline. A request whose
// preferred route is half full is answered by the next route down the
// ladder (hard → easy → variants) instead of waiting or being refused; the
// engine decides that per request (engine.place), and this package only
// reports it: the route a reply names, "diverted" and "ladder" on /stats,
// cbnet_requests_diverted_total on /metrics. The SLO objectives are fixed:
// 99% of successful requests within 50 ms of wall time, and 99.9% of all
// terminal responses not 5xx. SLO burn is not an input to routing; the
// monitor trips flight dumps.
//
// A /classify outcome is recorded in one place, Server.finish: one
// trace.Span on the serve track (kind admit, complete, reject, error,
// abandon or quarantine; the engine's breaker transitions land there too),
// stamped on the engine's clock (trace.Now). The reply's wallLatencyMs, the
// latency SLO's verdict and the dump's durMs are that span's duration.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/flight"
	"cbnet/internal/metrics"
	"cbnet/internal/resilience"
	"cbnet/internal/slo"
	"cbnet/internal/trace"
)

// Server wraps a CBNet pipeline with HTTP handlers.
type Server struct {
	Pipeline *core.Pipeline
	// Engine batches and routes /classify traffic.
	Engine *engine.Engine
	// Profile prices each request for the response's latency estimates.
	Profile device.Profile
	// Family is reported by /info.
	Family dataset.Family

	// routes is what one image costs on each of the engine's routes,
	// priced once at build time on Profile (see routePrice).
	routes []routePrice

	// SLO monitor: availability over all terminal responses (bad = 5xx),
	// latency over successful responses (bad = wall time above
	// sloLatencyP99). Observations are one atomic add each.
	sloMon *slo.Monitor
	availT *slo.Tracker
	latT   *slo.Tracker

	// events is the serve track: one span per /classify outcome and breaker
	// transition, written from whichever goroutine saw it. The flight
	// recorder (log tail, 503-burst detector, dump policy) lists it in every
	// dump, auto-dumped on SLO burn trips and 503 bursts.
	events *trace.Recorder
	flight *flight.Recorder

	// draining flips when Close starts; /readyz reports 503 from then on
	// so load balancers stop routing here before in-flight work finishes.
	draining atomic.Bool

	log *slog.Logger
	mux *http.ServeMux
}

// DeadlineHeader carries a per-request deadline in milliseconds (a
// positive number, fractional allowed).
const DeadlineHeader = "X-CBNet-Deadline-Ms"

// The service-level objectives the SLO monitor holds the server to.
const (
	// sloLatencyP99 is the latency objective: 99% of successful requests
	// complete (wall time, including queueing) within it.
	sloLatencyP99 = 50 * time.Millisecond
	// sloAvailability is the availability target over all terminal
	// responses (bad = 5xx).
	sloAvailability = 0.999
)

// Options tunes the server's observability surface.
type Options struct {
	// EnablePprof mounts Go's profiler under /debug/pprof. Off by
	// default: the endpoints expose stack traces and heap contents, so
	// they are opt-in for operator-facing deployments.
	EnablePprof bool
	// Logger receives the server's structured request logs (per-request
	// lines at Debug, errors at Warn). Nil selects slog.Default(). The
	// server tees its own records into the flight recorder's log buffer;
	// to capture records logged elsewhere in the process too, wrap their
	// handler with Server.FlightLogs().Wrap — cmd/cbnet-serve does.
	Logger *slog.Logger
	// FlightDir, when non-empty, receives flight-recorder auto-dump files
	// on SLO burn-rate trips and 503 bursts. Empty keeps dumps in memory
	// (still served by GET /debug/flight).
	FlightDir string
}

// routePrice is one engine route as /classify reports it: the §IV-C device
// model's latency and energy for one image on the server's Profile — a
// model, not a measurement — and the route's pre-interned span name (no
// string handling at event time).
type routePrice struct {
	name      string
	id        trace.NameID
	latencyMS float64
	energyMJ  float64 // millijoules per image
}

// priceOf returns the price of the route an engine result names. The engine
// answers only from routes it reported in RouteCosts, so the zero value is
// never served.
func (s *Server) priceOf(route string) routePrice {
	for _, rp := range s.routes {
		if rp.name == route {
			return rp
		}
	}
	return routePrice{}
}

// NewWithOptions builds a server with explicit observability options.
func NewWithOptions(p *core.Pipeline, eng *engine.Engine, prof device.Profile, family dataset.Family, opts Options) *Server {
	s := &Server{
		Pipeline: p,
		Engine:   eng,
		Profile:  prof,
		Family:   family,
		log:      opts.Logger,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	// The engine recorded each route's cost where it built the route; price
	// it here once so the classify hot path only looks the answer up.
	for _, rc := range eng.RouteCosts() {
		secs, joules, err := core.PriceImage(prof, rc.Cost)
		if err != nil {
			s.log.Warn("route not priced", "route", string(rc.Route), "device", prof.Name, "err", err)
		}
		s.routes = append(s.routes, routePrice{
			name:      string(rc.Route),
			id:        trace.Intern(string(rc.Route)),
			latencyMS: secs * 1e3,
			energyMJ:  joules * 1e3,
		})
	}

	// Flight recorder first (the SLO monitor's trip callback lands on it);
	// its dump context closes over s, attached after construction. Create
	// the dump directory up front: a missing directory would otherwise
	// surface only as a buried log line at dump time — during the incident.
	if opts.FlightDir != "" {
		if err := os.MkdirAll(opts.FlightDir, 0o755); err != nil {
			s.log.Warn("flight dir unavailable, dumps stay in memory", "dir", opts.FlightDir, "err", err)
			opts.FlightDir = ""
		}
	}
	s.events = trace.NewRecorder(eventRing)
	s.flight = flight.New(opts.FlightDir, s.events)
	s.flight.SetContext(s.flightContext)
	// Route the server's own records through the flight log tee so dumps
	// always carry the request-log tail; cmd/cbnet-serve additionally
	// funnels the process default logger through the same buffer.
	s.log = slog.New(s.flight.Logs().Wrap(s.log.Handler()))

	now := time.Now()
	s.availT = mustTracker(slo.Objective{
		Name:        "availability",
		Target:      sloAvailability,
		Description: "non-5xx responses over all terminal responses",
	}, now)
	s.latT = mustTracker(slo.Objective{
		Name:        "latency",
		Target:      0.99,
		Description: fmt.Sprintf("successful responses within %v wall time", sloLatencyP99),
	}, now)
	s.sloMon = slo.NewMonitor([]*slo.Tracker{s.availT, s.latT}, func(tp slo.Trip) {
		s.log.Warn("slo burn-rate trip",
			"slo", tp.Objective, "window", tp.Window,
			"burnRate", tp.BurnRate, "threshold", tp.Threshold,
			"good", tp.Good, "bad", tp.Bad)
		s.flight.Trip(tp.String())
	})
	s.sloMon.Start(time.Second)

	// Fault-isolation wiring: circuit-breaker transitions land in the log
	// and on the serve track (Step carries the new state — 0 closed, 1 open,
	// 2 half-open — Name the breaker's route).
	eng.OnBreaker(func(tr engine.BreakerTransition) {
		s.log.Warn("breaker transition",
			"route", string(tr.Route), "from", tr.From.String(), "to", tr.To.String())
		s.events.Emit(trace.Span{
			Kind: trace.KindBreaker, Name: trace.Intern(string(tr.Route)),
			Step: int(tr.To), Start: trace.Now(),
		})
	})

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /info", s.handleInfo)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	if opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("POST /classify", s.handleClassify)
	s.mux = mux
	return s
}

// mustTracker builds an SLO tracker. Its callers validated the target, so an
// error is a programming error.
func mustTracker(obj slo.Objective, now time.Time) *slo.Tracker {
	t, err := slo.NewTracker(obj, now)
	if err != nil {
		panic(err)
	}
	return t
}

// FlightLogs returns the flight recorder's slog tee; wrap the process
// logger's handler with it so dumps carry the last N log records.
func (s *Server) FlightLogs() *flight.LogBuffer { return s.flight.Logs() }

// eventRing is how many request outcomes the serve track holds: two spans
// a request (admit, then its outcome), so the last ~500 requests.
const eventRing = 1024

// tracks is every span ring of the process as /debug/trace draws it: the
// serve track's request bars above the engine's worker tracks.
func (s *Server) tracks() []trace.Track {
	return append([]trace.Track{{Name: "serve", Spans: s.events.Snapshot()}}, s.Engine.TraceTracks()...)
}

// flightContext gathers the correlated state attached to every flight
// dump: engine queue gauges, SLO snapshots, and the /debug/trace document.
func (s *Server) flightContext() map[string]any {
	var spans bytes.Buffer
	if err := trace.WriteChrome(&spans, s.tracks()); err != nil {
		s.log.Warn("trace dump failed", "err", err)
	}
	return map[string]any{
		"stats": s.Engine.Stats(),
		"slo":   s.sloMon.Snapshot(time.Now()),
		"spans": json.RawMessage(spans.Bytes()),
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the SLO monitor and drains the inference engine; in-flight
// requests complete, new ones get 503. /readyz reports not-ready from the
// first moment of the drain.
func (s *Server) Close() {
	s.draining.Store(true)
	s.sloMon.Stop()
	s.Engine.Close()
}

// BeginDrain marks the server not-ready (/readyz answers 503) without
// stopping any work — a graceful shutdown calls it first so load
// balancers steer new traffic away while in-flight requests finish.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// DumpFlight writes an unconditional flight-recorder dump for the given
// reason (file only when Options.FlightDir is set), bypassing the
// auto-dump cooldown. cmd/cbnet-serve calls it on graceful shutdown so
// the final request-lifecycle window survives the process.
func (s *Server) DumpFlight(reason string) { s.flight.DumpNow(reason) }

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// ReadyResponse is the /readyz payload. Ready is false while the server
// drains, no route has queue room, or a serving route's circuit breaker is
// open; Reasons lists every cause currently holding readiness down.
type ReadyResponse struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
}

// handleReady is the readiness probe: unlike /healthz (liveness — is the
// process up), it answers "should a load balancer send traffic here right
// now". 503 while draining, while every route of the ladder is at or past
// its spill mark (the next request would be refused), or while a breaker
// holds a serving route open (traffic is being diverted or refused, so a
// replica with healthy routes is a better target).
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining: shutdown in progress")
	}
	if s.Engine.Shedding() {
		reasons = append(reasons, "shedding: no route has room")
	}
	// Every route, variants included: the overflow lands on them.
	for _, b := range s.Engine.Resilience().Breakers {
		if b.State == resilience.Open.String() {
			reasons = append(reasons, fmt.Sprintf("breaker open: route %s", b.Route))
		}
	}
	status := http.StatusOK
	if len(reasons) > 0 {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, ReadyResponse{Ready: len(reasons) == 0, Reasons: reasons})
}

// InfoResponse is the /info payload.
type InfoResponse struct {
	Dataset          string  `json:"dataset"`
	Device           string  `json:"device"`
	BottleneckWidth  int     `json:"bottleneckWidth"`
	PipelineMACs     int     `json:"pipelineMACs"`
	ModelLatencyMS   float64 `json:"modelLatencyMs"`
	AEShareOfLatency float64 `json:"aeShareOfLatency"`
	// Engine configuration, so operators can see the serving shape.
	MaxBatch          int     `json:"maxBatch"`
	Workers           int     `json:"workers"`
	HardnessThreshold float64 `json:"hardnessThreshold"`
	// DegradeLadder lists the route names in the order an overflowing
	// request tries them.
	DegradeLadder []string `json:"degradeLadder"`
}

func (s *Server) handleInfo(w http.ResponseWriter, _ *http.Request) {
	cost := s.Pipeline.Cost()
	cfg := s.Engine.Config()
	resp := InfoResponse{
		Dataset:           s.Family.String(),
		Device:            s.Profile.Name,
		BottleneckWidth:   s.Pipeline.AE.BottleneckWidth(),
		PipelineMACs:      cost.TotalMACs(),
		ModelLatencyMS:    s.Profile.Latency(cost) * 1e3,
		AEShareOfLatency:  s.Pipeline.AECostShare(s.Profile),
		MaxBatch:          cfg.MaxBatch,
		Workers:           cfg.Workers,
		HardnessThreshold: engine.DefaultHardnessThreshold,
		DegradeLadder:     s.Engine.DegradeLadder(),
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Engine.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", metrics.PromContentType)
	if err := s.Engine.WritePrometheus(w); err != nil {
		s.log.Warn("metrics exposition failed", "err", err)
		return
	}
	if err := s.writeSLOMetrics(w); err != nil {
		s.log.Warn("slo exposition failed", "err", err)
	}
}

// writeSLOMetrics appends the SLO monitor's series to the exposition.
func (s *Server) writeSLOMetrics(w io.Writer) error {
	p := metrics.NewPromWriter(w)
	var budget, burn, trips []metrics.VecSample
	for _, o := range s.sloMon.Snapshot(time.Now()) {
		budget = append(budget, metrics.VecSample{
			Labels: metrics.Labels{metrics.L("slo", o.Objective)},
			Value:  o.BudgetRemaining,
		})
		for _, win := range o.Windows {
			ls := metrics.Labels{metrics.L("slo", o.Objective), metrics.L("window", win.Window)}
			burn = append(burn, metrics.VecSample{Labels: ls, Value: win.BurnRate})
			trips = append(trips, metrics.VecSample{Labels: ls, Value: float64(win.Trips)})
		}
	}
	p.GaugeVec("cbnet_slo_budget_remaining", "Unspent error-budget fraction per objective over the longest burn window (1 untouched, <=0 exhausted).", budget)
	p.GaugeVec("cbnet_slo_burn_rate", "Error-budget burn rate per objective and look-back window (1 = budget spent exactly at its sustainable rate).", burn)
	p.CounterVec("cbnet_slo_window_violations_total", "Burn-rate threshold crossings (rising edges) per objective and window.", trips)
	return p.Err()
}

// SLOResponse is the GET /slo verdict.
type SLOResponse struct {
	At time.Time `json:"at"`
	// Overall is the worst objective state: "ok", "burning", "exhausted".
	Overall    string         `json:"overall"`
	Objectives []slo.Snapshot `json:"objectives"`
}

func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	resp := SLOResponse{At: now, Overall: "ok"}
	rank := map[string]int{"ok": 0, "burning": 1, "exhausted": 2}
	for _, o := range s.sloMon.Snapshot(now) {
		if rank[o.State] > rank[resp.Overall] {
			resp.Overall = o.State
		}
		resp.Objectives = append(resp.Objectives, o)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.Snapshot("http"))
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := trace.WriteChrome(w, s.tracks()); err != nil {
		s.log.Warn("trace dump failed", "err", err)
	}
}

// ClassifyRequest is the JSON /classify payload.
type ClassifyRequest struct {
	Pixels []float32 `json:"pixels"`
	// IncludeConverted echoes the autoencoder output in the response (and
	// therefore forces the full AE route).
	IncludeConverted bool `json:"includeConverted,omitempty"`
}

// ClassifyResponse is the /classify result.
type ClassifyResponse struct {
	// RequestID correlates this response with its spans in /debug/trace
	// (the serve track's request bar, the engine's queue span) and the
	// server's structured logs.
	RequestID uint64 `json:"requestId"`
	Class     int    `json:"class"`
	// Route is the engine path taken: "easy" (classifier only), "hard"
	// (AE + classifier), or a variant the overflow spilled to.
	Route string `json:"route"`
	// Hardness is the request's §V heuristic score.
	Hardness float64 `json:"hardness"`
	// BatchSize is the micro-batch this request was served in.
	BatchSize int `json:"batchSize"`
	// ModelLatencyMS is the calibrated edge-device estimate for the route
	// named in Route — a device model, not a measurement; WallLatencyMS is
	// this host's actual processing time including batching queue wait.
	ModelLatencyMS float64 `json:"modelLatencyMs"`
	WallLatencyMS  float64 `json:"wallLatencyMs"`
	// EnergyEstimateMJ is the paper's §IV-C energy model evaluated for the
	// route named in Route on the server's device profile, in
	// millijoules/image — a device model, not a measurement, and the same
	// figure /metrics exports as cbnet_energy_joules_per_image.
	EnergyEstimateMJ float64 `json:"energyEstimateMj"`
	// QueueWaitMS is the time spent in the route's queue before a worker
	// took the request into a batch.
	QueueWaitMS float64   `json:"queueWaitMs"`
	Converted   []float32 `json:"converted,omitempty"`
}

// finish is the one place a /classify request ends: it stamps the outcome,
// writes the request's span to the serve track, feeds the SLO trackers
// (availability: bad = 5xx; latency, served requests only: bad = wall time
// over sloLatencyP99) and the 503-burst detector (rejects only — a
// client that hung up is no overload), logs, and writes the reply. kind
// tells a refusal from an error from a caller that went away; res is the
// engine's answer when kind is KindComplete, and msg the error otherwise. A
// request the engine was handed (st.admitted != 0) spans admission to now;
// one turned away before that is a point.
func (s *Server) finish(ctx context.Context, w http.ResponseWriter, st *classifyState, kind trace.Kind, status int, res *engine.Result, msg string) {
	now := trace.Now()
	sp := trace.Span{ID: st.id, Kind: kind, Step: status, Start: now}
	if st.admitted != 0 {
		sp.Start, sp.Dur = st.admitted, now-st.admitted
	}
	s.availT.Observe(status < 500)
	if kind != trace.KindComplete {
		s.events.Emit(sp)
		if kind == trace.KindReject {
			s.flight.NoteReject(now) // may auto-dump
		}
		s.log.Warn("classify failed", "requestId", st.id, "status", status, "err", msg)
		st.reply = appendErrorBody(st.reply[:0], st.id, msg)
		writeBody(w, status, st.reply)
		return
	}
	price := s.priceOf(res.Route)
	sp.Name, sp.Batch = price.id, res.BatchSize
	s.events.Emit(sp)
	wallMS := float64(time.Duration(sp.Dur).Microseconds()) / 1e3
	s.latT.Observe(wallMS <= float64(sloLatencyP99)/float64(time.Millisecond))
	// Checked first: the arguments are boxed before Debug can decline them.
	if s.log.Enabled(ctx, slog.LevelDebug) {
		s.log.Debug("classify",
			"requestId", st.id,
			"route", res.Route,
			"batchSize", res.BatchSize,
			"class", res.Class,
			"wallMs", wallMS,
			"energyMj", price.energyMJ)
	}
	st.reply = appendClassifyResponse(st.reply[:0], &ClassifyResponse{
		RequestID:        res.RequestID,
		Class:            res.Class,
		Route:            res.Route,
		Hardness:         res.Hardness,
		BatchSize:        res.BatchSize,
		ModelLatencyMS:   price.latencyMS,
		WallLatencyMS:    wallMS,
		EnergyEstimateMJ: price.energyMJ,
		QueueWaitMS:      float64(res.QueueWait.Microseconds()) / 1e3,
		Converted:        res.Converted,
	})
	writeBody(w, http.StatusOK, st.reply)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	st := statePool.Get().(*classifyState)
	if s.classify(w, r, st) {
		putState(st)
	}
}

// maxDeadline clamps a client-requested deadline.
const maxDeadline = 10 * time.Minute

// parseDeadline reads a DeadlineHeader value: a positive millisecond count,
// clamped into [1ns, maxDeadline] before it becomes a Duration, so that no
// accepted header converts to a zero or overflowed (negative) deadline that
// would read as "no deadline".
func parseDeadline(h string) (time.Duration, bool) {
	ms, err := strconv.ParseFloat(h, 64)
	if err != nil || !(ms > 0) {
		return 0, false
	}
	ns := ms * float64(time.Millisecond)
	return time.Duration(min(max(ns, 1), float64(maxDeadline))), true
}

// isPNGType reports whether a Content-Type header value names image/png:
// media types match without regard to case and parameters do not count
// (RFC 9110 §8.3.1), so "Image/PNG" and "image/png; charset=binary" do. The
// spelling clients send is matched first, before any parsing.
func isPNGType(ct string) bool {
	if ct == "image/png" {
		return true
	}
	mediaType, _, _ := strings.Cut(ct, ";")
	return strings.EqualFold(strings.TrimSpace(mediaType), "image/png")
}

// classify serves one /classify request out of st and reports whether st may
// be pooled again. It may not once the engine has queued the request and
// Submit has given up on it (deadline, cancellation): the queued request
// still points at st.pixels and a worker will read them. A nil error means
// the worker is done with them; ErrPoisoned, ErrOverloaded and ErrClosed
// mean the request was never queued.
func (s *Server) classify(w http.ResponseWriter, r *http.Request, st *classifyState) (recycle bool) {
	// The request ID is issued before decoding so every outcome —
	// including 400/413 rejections that never reach the engine — carries
	// a correlatable requestId in its response, logs, and spans.
	st.id, st.admitted = s.Engine.IssueRequestID(), 0
	ctx := r.Context()
	isPNG := isPNGType(r.Header.Get("Content-Type"))
	format := "json"
	if isPNG {
		format = "png"
	}
	if err := st.readBody(w, r); err != nil {
		s.finish(ctx, w, st, trace.KindError, decodeStatus(err), nil, fmt.Sprintf("decoding %s: %v", format, err))
		return true
	}
	var pixels []float32
	var includeConverted bool
	var err error
	if isPNG {
		pixels, err = st.decodePNG()
	} else {
		pixels, includeConverted, err = st.decodeJSON()
	}
	if err != nil {
		s.finish(ctx, w, st, trace.KindError, http.StatusBadRequest, nil, err.Error())
		return true
	}
	if len(pixels) != dataset.Pixels {
		s.finish(ctx, w, st, trace.KindError, http.StatusBadRequest, nil, fmt.Sprintf("got %d pixels, want %d", len(pixels), dataset.Pixels))
		return true
	}
	for i, v := range pixels {
		if !(v >= 0 && v <= 1) { // written so that NaN fails
			s.finish(ctx, w, st, trace.KindError, http.StatusBadRequest, nil, fmt.Sprintf("pixel %d = %v outside [0,1]", i, v))
			return true
		}
	}

	// The deadline header, if any, rides the context into the engine, where
	// an expired request is shed at admission or by the worker that takes it
	// instead of wasting a batch slot.
	if h := r.Header.Get(DeadlineHeader); h != "" {
		deadline, ok := parseDeadline(h)
		if !ok {
			s.finish(ctx, w, st, trace.KindError, http.StatusBadRequest, nil,
				fmt.Sprintf("invalid %s header %q: want a positive millisecond count", DeadlineHeader, h))
			return true
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	// The one stamp the request's bar starts on; finish reads the other.
	st.admitted = trace.Now()
	s.events.Emit(trace.Span{ID: st.id, Kind: trace.KindAdmit, Start: st.admitted})
	res, err := s.Engine.Submit(ctx, engine.Request{
		ID:               st.id,
		Pixels:           pixels,
		IncludeConverted: includeConverted,
	})
	switch {
	case err == nil:
		s.finish(ctx, w, st, trace.KindComplete, http.StatusOK, &res, "")
		return true
	case errors.Is(err, engine.ErrOverloaded):
		// A full queue here drains in well under a second.
		w.Header().Set("Retry-After", "1")
		s.finish(ctx, w, st, trace.KindReject, http.StatusServiceUnavailable, nil, "engine overloaded, retry later")
		return true
	case errors.Is(err, engine.ErrClosed):
		s.finish(ctx, w, st, trace.KindReject, http.StatusServiceUnavailable, nil, "server shutting down")
		return true
	case errors.Is(err, engine.ErrPoisoned):
		// The input's fingerprint matches a quarantined poison pill: a
		// bit-identical submission previously crashed or failed inference
		// and was convicted by bisection. 422 (not 5xx) because the input
		// itself is the problem — resubmitting it will never succeed, and
		// the rejection must not burn the availability budget.
		s.finish(ctx, w, st, trace.KindQuarantine, http.StatusUnprocessableEntity, nil, "input quarantined as a poison pill")
		return true
	case errors.Is(err, engine.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		// The header's deadline ran out before the request executed. 504 distinguishes "too slow" from admission
		// shedding, and it counts against availability like other 5xx.
		s.finish(ctx, w, st, trace.KindError, http.StatusGatewayTimeout, nil, "deadline expired before completion")
		return false
	case errors.Is(err, context.Canceled):
		// The client has gone away; any status we write is best-effort.
		// The abandoned slot still consumed capacity, so it counts
		// against availability like other 5xx outcomes — but it is an
		// abandon, not a reject: a wave of hang-ups says nothing about
		// load and must not trip the 503-burst dump.
		s.finish(ctx, w, st, trace.KindAbandon, http.StatusServiceUnavailable, nil, err.Error())
		return false
	default:
		s.finish(ctx, w, st, trace.KindError, http.StatusInternalServerError, nil, err.Error())
		return false
	}
}

// decodeStatus maps a body-read error to 413 when the request cap was hit,
// 400 otherwise.
func decodeStatus(err error) int {
	var maxErr *http.MaxBytesError
	if errors.As(err, &maxErr) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
