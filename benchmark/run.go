//go:build linux

package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"cbnet/internal/rng"
)

// metric is one named number of the run's report.
type metric struct {
	name, unit string
	value      float64
}

// options are the arguments of one run, and three sizes that are constants
// for every run the command line can ask for (parseArgs); only the smoke test,
// which has seconds where a run has a minute, builds options with smaller ones.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	warmup   time.Duration // before the measured window
	starts   int           // cold starts setup_s is the median of
	trainN   int           // images the fixture is trained on
}

const (
	warmUp      = 3 * time.Second
	coldStarts  = 9
	fixtureSize = 1000
)

// report is what one run prints.
type report struct {
	// notes are printed as comment lines above the metrics.
	notes             []string
	metrics           []metric
	attempted, failed int
	// correct is false when more than one answer in a thousand differs from
	// the oracle's class for the route it reports.
	correct bool
}

// imageCount sizes a run: perSecond × seconds, rounded to whole passes over
// the pool once it reaches one pass.
func (wl workload) imageCount(seconds, poolLen int) int {
	n := wl.perSecond * seconds * wl.imgsPer
	if n >= poolLen {
		return (n + poolLen/2) / poolLen * poolLen
	}
	return n - n%wl.imgsPer
}

func newEnvironment(root string, wl workload, trainN int) (*environment, error) {
	env := &environment{root: root}
	var err error
	if env.ckpt, env.trainS, err = ensureCheckpoint(root, trainN); err != nil {
		return nil, err
	}
	if env.pipe, err = loadPipeline(env.ckpt); err != nil {
		return nil, err
	}
	if env.pools, err = buildPools(env.pipe, wl.pool); err != nil {
		return nil, err
	}
	switch wl.pool {
	case "easy":
		env.inputs = env.pools.easy
	case "hard":
		env.inputs = env.pools.hard
	default:
		env.inputs = append(append([]input(nil), env.pools.easy...), env.pools.hard...)
	}
	if env.mjEasy, env.mjHard, err = routeEnergyMJ(env.pipe); err != nil {
		return nil, err
	}
	if wl.contentType != "" {
		if env.serveBin, err = buildServer(root); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// tally is the count-type outcome of one pass.
type tally struct {
	attempted, okImgs, right, matches, hardImgs int
	status4xx, status5xx                        int
	energyMJ                                    float64 // summed over answered images
	rttUs                                       float64 // mean send → done
}

func tallyRecords(recs []record, imgsPer int) tally {
	var t tally
	var rtt int64
	ops := 0
	for i := range recs {
		r := &recs[i]
		if !r.done {
			continue
		}
		ops++
		rtt += r.end - r.start
		t.attempted += imgsPer
		switch {
		case r.status >= 500:
			t.status5xx++
		case r.status >= 400:
			t.status4xx++
		}
		if !r.ok {
			continue
		}
		t.okImgs += imgsPer
		t.right += r.right
		t.matches += r.matches
		t.energyMJ += r.energyMJ * float64(imgsPer)
		if r.hardRoute {
			t.hardImgs += imgsPer
		}
	}
	if ops > 0 {
		t.rttUs = float64(rtt) / 1e3 / float64(ops)
	}
	return t
}

// runWorkload sets the workload up from the seed, runs it, checks the
// answers and returns the report: the end-to-end metrics, or with o.trace the
// per-layer ones.
func runWorkload(root string, o options) (*report, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	env, err := newEnvironment(root, wl, o.trainN)
	if err != nil {
		return nil, err
	}

	// Everything random about the run derives from the seed: the order of
	// the pool in each pass (and with it the easy/hard interleave) and the
	// arrival schedule.
	r := rng.New(o.seed)
	images := wl.imageCount(o.seconds, len(env.inputs))
	seq := sequence(r.Split(), images, len(env.inputs))
	ops := images / wl.imgsPer
	if ops < 2*slices {
		return nil, fmt.Errorf("%d operations are too few to cut into %d slices, and again in half for a traced run", ops, slices)
	}
	var due, warmDue []int64
	if wl.open {
		due = poissonSchedule(r.Split(), ops, float64(wl.perSecond))
		warmDue = poissonSchedule(r.Split(), ops, float64(wl.perSecond))
	}

	probe := startHostProbe()
	defer probe.stop()

	// Set-up time: several cold starts, each from checkpoint files to the
	// first oracle-correct answer. The last start stays up.
	setupFrom := time.Now()
	t := wl.newTarget(env)
	defer t.stop()
	setups := make([]float64, o.starts)
	for k := range setups {
		t.stop()
		t0 := time.Now()
		if err := t.start(); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", k+1, err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	setupCorrection := probe.correction(setupFrom, time.Now())

	l := load{ops: ops, workers: wl.workers, due: warmDue, stopAfter: o.warmup, do: t.op(seq), prep: t.prep(seq), cpu: t.cpu}
	if _, err := l.run(); err != nil {
		return nil, fmt.Errorf("reading CPU time: %w", err)
	}
	// A host too slow for the count is cut off rather than left to run into
	// the caller's timeout; the operations that did not run are not counted.
	l.due, l.stopAfter = due, 4*time.Duration(o.seconds)*time.Second

	s := &session{wl: wl, env: env, seq: seq, target: t, probe: probe, load: l}
	if o.trace {
		return s.perLayer()
	}
	return s.endToEnd(median(setups), setupCorrection)
}

// session is a workload set up, started and warmed: what the measured part
// of a run works with.
type session struct {
	wl     workload
	env    *environment
	seq    []int32
	target target
	probe  *hostProbe
	load   load // the measured window
}

func (s *session) summarize(win window) (atRef, raw timing, ty tally) {
	atRef, raw = win.summarize(s.probe, s.wl.imgsPer, s.wl.open)
	return atRef, raw, tallyRecords(win.recs, s.wl.imgsPer)
}

// endToEnd runs the measured window with the span log off and reports the
// end-to-end metrics. rawSetupS is the median cold start as the clock read
// it, setupCorrection what takes it to the reference host speed.
func (s *session) endToEnd(rawSetupS, setupCorrection float64) (*report, error) {
	win, err := s.load.run()
	if err != nil {
		return nil, fmt.Errorf("reading CPU time: %w", err)
	}
	tm, raw, ty := s.summarize(win)
	rss, err := s.target.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("reading peak RSS: %w", err)
	}
	if ty.okImgs == 0 {
		return nil, fmt.Errorf("no operation of %d succeeded", ty.attempted)
	}
	mj := ty.energyMJ / float64(ty.okImgs)
	if err := checkEnergyIdentity(s.env, ty, mj); err != nil {
		return nil, err
	}
	return &report{
		attempted: ty.attempted, failed: ty.attempted - ty.okImgs, correct: oracleAgrees(ty),
		// What the clocks read, before the correction to the reference host
		// speed: for the reader, and for -selfcheck to set beside the metrics.
		notes: []string{
			fmt.Sprintf("raw: host_speed=%.6g imgs_per_s=%.6g latency_p50_ms=%.6g cpu_ms_per_img=%.6g setup_s=%.6g",
				tm.hostSpeed, raw.imgsPerS, raw.p50ms, raw.cpuMsPerImg, rawSetupS),
			// Not end to end on this host (README.md): the traced run reports them.
			fmt.Sprintf("tail: latency_p95_ms=%.6g latency_p99_ms=%.6g", tm.p95ms, tm.p99ms),
		},
		metrics: []metric{
			{"imgs_per_s", "img/s", tm.imgsPerS},
			{"latency_p50_ms", "ms", tm.p50ms},
			{"cpu_ms_per_img", "ms", tm.cpuMsPerImg},
			{"peak_rss_mb", "MB", rss},
			{"ok_share", "share", float64(ty.okImgs) / float64(ty.attempted)},
			{"accuracy", "share", float64(ty.right) / float64(ty.attempted)},
			{"pi4_mj_per_img", "mJ", mj},
			{"setup_s", "s", rawSetupS * setupCorrection},
		},
	}, nil
}

// perLayer is the traced run: the first half of the sequence with the span
// log off, then the same half again with it on, then each layer on its own.
func (s *session) perLayer() (*report, error) {
	wl, env, t, l := s.wl, s.env, s.target, s.load
	l.ops /= 2
	plain, err := l.run()
	if err != nil {
		return nil, fmt.Errorf("reading CPU time: %w", err)
	}
	spans := newSpanLog(wl.workers, l.ops)
	l.spans = spans
	before, err := t.counts()
	if err != nil {
		return nil, fmt.Errorf("reading engine counters: %w", err)
	}
	traced, err := l.run()
	if err != nil {
		return nil, fmt.Errorf("reading CPU time: %w", err)
	}
	after, err := t.counts()
	if err != nil {
		return nil, fmt.Errorf("reading engine counters: %w", err)
	}
	contentType, usesEngine := wl.contentType, wl.contentType != "" || wl.viaEngine
	t.stop() // the replay wants the cores to itself
	lt, err := replayLayers(env, s.seq, contentType, usesEngine)
	if err != nil {
		return nil, err
	}
	out := filepath.Join(env.root, "benchmark", "out", wl.name+".spans.jsonl")
	if err := spans.write(out); err != nil {
		return nil, fmt.Errorf("writing span log: %w", err)
	}

	tm, _, ty := s.summarize(traced)
	plainTm, _, _ := s.summarize(plain)
	okOps := ty.okImgs / wl.imgsPer
	if okOps == 0 {
		return nil, fmt.Errorf("no operation of %d succeeded", ty.attempted)
	}
	request := spans.meanUs(spanRequest, ty.attempted/wl.imgsPer)
	submit := spans.meanUs(spanSubmit, okOps)
	queue := spans.meanUs(spanQueue, okOps)
	infer := spans.meanUs(spanInfer, okOps)
	images0, batches0 := before.imagesAndBatches()
	images1, batches1 := after.imagesAndBatches()

	var m perLayer
	m.hardRecall = env.pools.hardRecall
	m.mjEasy, m.mjHard = env.mjEasy, env.mjHard
	m.trainS = env.trainS
	m.oracleMismatch = float64(ty.okImgs - ty.matches)
	m.hardRouteShare = float64(ty.hardImgs) / float64(ty.okImgs)
	m.latencyP95ms, m.latencyP99ms, m.hostSpeed = tm.p95ms, tm.p99ms, tm.hostSpeed
	m.traceOverhead = 1 - tm.imgsPerS/plainTm.imgsPerS
	ckptBytes, err := checkpointBytes(env.ckpt)
	if err != nil {
		return nil, err
	}
	m.ckptBytes = float64(ckptBytes)
	if wl.open {
		m.genLateP99us = tm.lateP99us
	}
	attributed := lt.convertUsB32 + lt.classifyUsB32 // offline: the two plan calls of InferInto
	if usesEngine {
		m.queueWaitUs = queue
		m.batches = float64(batches1 - batches0)
		if batches1 > batches0 {
			m.batchSizeMean = float64(images1-images0) / m.batches
		}
		m.rejected = float64(after.Rejected - before.Rejected)
		m.expired = float64(after.DeadlineExpired - before.DeadlineExpired)
		m.inferFailed = float64(after.InferFailed - before.InferFailed)
		// In-process the live spans carry the forward pass and Submit's own
		// time is what they leave of its span; over HTTP the reply omits the
		// forward pass, so both come from the single-caller replay.
		m.inferUsPerBatch, m.submitOverheadUs = infer, submit-queue-infer
		attributed = queue + infer + lt.scoreNs/1e3
	}
	if contentType != "" {
		m.inferUsPerBatch, m.submitOverheadUs = lt.inferUsPerBatch, lt.submitOverheadUs
		m.wireUs = ty.rttUs - lt.serveHTTPUs
		m.status4xx, m.status5xx = float64(ty.status4xx), float64(ty.status5xx)
		var bodyBytes float64
		for i := range env.inputs {
			bodyBytes += float64(len(env.inputs[i].body))
		}
		bodyBytes /= float64(len(env.inputs))
		if contentType == "image/png" {
			m.overheadUsPNG, m.allocsPNG, m.reqBytesPNG = lt.serveOverheadUs, lt.serveAllocsPerReq, bodyBytes
		} else {
			m.overheadUsJSON, m.allocsJSON, m.reqBytesJSON = lt.serveOverheadUs, lt.serveAllocsPerReq, bodyBytes
		}
		// Time inside the repo's layers: what serve adds around Submit, and
		// Submit as serve timed it. The rest is loopback and net/http.
		attributed = lt.serveOverheadUs + submit
	}
	m.unattributed = 1 - attributed/request

	rep := &report{attempted: ty.attempted, failed: ty.attempted - ty.okImgs, correct: oracleAgrees(ty)}
	rep.metrics = m.metrics(env, lt)
	return rep, nil
}

// oracleAgrees applies the benchmark's correctness rule: at most one answer
// in a thousand may differ from the oracle's class for the route reported.
func oracleAgrees(ty tally) bool {
	return float64(ty.okImgs-ty.matches) <= 0.001*float64(ty.attempted)
}

// checkEnergyIdentity asserts that the energy per image the run reports is
// the route-share-weighted sum of the two routes' modelled energies.
func checkEnergyIdentity(env *environment, ty tally, mj float64) error {
	hardShare := float64(ty.hardImgs) / float64(ty.okImgs)
	want := hardShare*env.mjHard + (1-hardShare)*env.mjEasy
	if math.Abs(mj-want) > 1e-9*want {
		return fmt.Errorf("pi4_mj_per_img %v is not the route-weighted sum %v (hard share %v of easy %v mJ, hard %v mJ)",
			mj, want, hardShare, env.mjEasy, env.mjHard)
	}
	return nil
}

// perLayer holds the per-layer numbers that do not come from the replay.
type perLayer struct {
	overheadUsJSON, overheadUsPNG, wireUs  float64
	allocsJSON, allocsPNG                  float64
	reqBytesJSON, reqBytesPNG              float64
	status4xx, status5xx                   float64
	queueWaitUs, batchSizeMean, batches    float64
	inferUsPerBatch, submitOverheadUs      float64
	hardRouteShare                         float64
	rejected, expired, inferFailed         float64
	hardRecall, oracleMismatch             float64
	ckptBytes, trainS, mjEasy, mjHard      float64
	genLateP99us                           float64
	latencyP95ms, latencyP99ms             float64
	traceOverhead, unattributed, hostSpeed float64
}

func (m perLayer) metrics(env *environment, lt layerTimes) []metric {
	return []metric{
		{"serve.overhead_us_json", "us", m.overheadUsJSON},
		{"serve.overhead_us_png", "us", m.overheadUsPNG},
		{"serve.wire_us", "us", m.wireUs},
		{"serve.allocs_per_req_json", "count", m.allocsJSON},
		{"serve.allocs_per_req_png", "count", m.allocsPNG},
		{"serve.req_bytes_json", "B", m.reqBytesJSON},
		{"serve.req_bytes_png", "B", m.reqBytesPNG},
		{"serve.status_4xx", "count", m.status4xx},
		{"serve.status_5xx", "count", m.status5xx},
		{"engine.queue_wait_us", "us", m.queueWaitUs},
		{"engine.batch_size_mean", "img", m.batchSizeMean},
		{"engine.batches", "count", m.batches},
		{"engine.infer_us_per_batch", "us", m.inferUsPerBatch},
		{"engine.submit_overhead_us", "us", m.submitOverheadUs},
		{"engine.hard_route_share", "share", m.hardRouteShare},
		{"engine.rejected", "count", m.rejected},
		{"engine.expired", "count", m.expired},
		{"engine.infer_failed", "count", m.inferFailed},
		{"generalize.score_ns", "ns", lt.scoreNs},
		{"generalize.hard_recall", "share", m.hardRecall},
		{"core.convert_us_b1", "us", lt.convertUsB1},
		{"core.classify_us_b1", "us", lt.classifyUsB1},
		{"core.convert_us_b32", "us", lt.convertUsB32},
		{"core.classify_us_b32", "us", lt.classifyUsB32},
		{"core.ae_time_share_b32", "share", lt.convertUsB32 / (lt.convertUsB32 + lt.classifyUsB32)},
		{"core.ae_model_share_pi4", "share", env.pipe.AECostShare(piProfile)},
		{"core.plans_compile_ms", "ms", lt.plansCompileMs},
		{"core.oracle_mismatch", "count", m.oracleMismatch},
		{"nn.ae_gflops_b32", "GFLOP/s", lt.aeGflopsB32},
		{"nn.clf_gflops_b32", "GFLOP/s", lt.clfGflopsB32},
		{"nn.ae_flops_per_img", "FLOP", lt.aeFlopsPerImg},
		{"nn.clf_flops_per_img", "FLOP", lt.clfFlopsPerImg},
		{"nn.ae_bytes_per_img", "B", lt.aeBytesPerImg},
		{"nn.clf_bytes_per_img", "B", lt.clfBytesPerImg},
		{"nn.execute_allocs_b32", "count", lt.executeAllocsB32},
		{"tensor.gemm_gflops_256", "GFLOP/s", lt.gemm256},
		{"tensor.gemm_gflops_conv2_b32", "GFLOP/s", lt.gemmConv2},
		{"tensor.gemm_gflops_conv3_b32", "GFLOP/s", lt.gemmConv3},
		{"tensor.gemv_gflops_784x128", "GFLOP/s", lt.gemv},
		{"models.ckpt_load_ms", "ms", lt.ckptLoadMs},
		{"models.ckpt_bytes", "B", m.ckptBytes},
		{"models.train_s", "s", m.trainS},
		{"energy.pi4_mj_easy", "mJ", m.mjEasy},
		{"energy.pi4_mj_hard", "mJ", m.mjHard},
		{"bench.gen_late_p99_us", "us", m.genLateP99us},
		{"bench.latency_p95_ms", "ms", m.latencyP95ms},
		{"bench.latency_p99_ms", "ms", m.latencyP99ms},
		{"bench.trace_overhead_share", "share", m.traceOverhead},
		{"bench.unattributed_share", "share", m.unattributed},
		{"bench.host_speed", "share", m.hostSpeed},
	}
}
