//go:build linux

package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/tensor"
)

// workload is one named traffic mix. perSecond sizes its fixed operation
// count from the -seconds argument: the rate the 2-core reference host
// sustains when no neighbour slows it, so that every workload measures for
// about -seconds there. The count is rounded to whole passes over the pool
// (imageCount), so it is the same number on every run with the same -seconds
// and the count-type metrics repeat.
type workload struct {
	name      string
	pool      string // "easy", "hard" or "mixed"
	perSecond int
	workers   int // connections, callers or goroutines of the generator
	// open makes the loop open: Poisson arrivals at perSecond, whether or not
	// earlier requests have been answered.
	open    bool
	imgsPer int // images one operation carries
	// contentType is the body type of an HTTP workload; the in-process
	// workloads leave it empty and either go through Engine.Submit or not.
	contentType string
	viaEngine   bool
}

var workloads = []workload{
	{name: "http_easy_json_c2", pool: "easy", perSecond: 3200, workers: 2, imgsPer: 1, contentType: "application/json"},
	{name: "http_hard_png_r600", pool: "hard", perSecond: 600, open: true, workers: 2, imgsPer: 1, contentType: "image/png"},
	{name: "engine_mixed_c32", pool: "mixed", perSecond: 10500, workers: 32, imgsPer: 1, viaEngine: true},
	{name: "offline_hard_b32", pool: "hard", perSecond: 265, workers: 1, imgsPer: batchRows},
}

func (wl workload) newTarget(env *environment) target {
	switch {
	case wl.contentType != "":
		return &httpTarget{env: env, contentType: wl.contentType}
	case wl.viaEngine:
		return &engineTarget{env: env}
	default:
		return &offlineTarget{env: env}
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// environment is what set-up leaves for a run: the fixture on disk, the
// reference pipeline it loads to, the pools, and the per-route energy of the
// paper's §IV-C Raspberry Pi 4 model.
type environment struct {
	root, ckpt, serveBin string
	trainS               float64
	pipe                 *core.Pipeline
	pools                *pools
	inputs               []input // the workload's pool
	mjEasy, mjHard       float64
}

var piProfile = device.RaspberryPi4()

// routeEnergyMJ prices the two routes exactly as internal/serve does for its
// energyEstimateMj field.
func routeEnergyMJ(pipe *core.Pipeline) (easy, hard float64, err error) {
	prof := piProfile
	full, direct := pipe.Cost(), pipe.DirectCost()
	h, err := core.EnergyPerImage(prof, prof.Latency(full), prof.KernelTime(full))
	if err != nil {
		return 0, 0, err
	}
	e, err := core.EnergyPerImage(prof, prof.Latency(direct), prof.KernelTime(direct))
	if err != nil {
		return 0, 0, err
	}
	return e * 1e3, h * 1e3, nil
}

// serveEngineConfig is the engine cbnet-serve builds from its default flags.
func serveEngineConfig() engine.Config {
	return engine.Config{Resilience: engine.ResilienceConfig{Enabled: true}}
}

// target is the system a workload drives: a cbnet-serve subprocess, an
// in-process engine, or a bare plan set.
type target interface {
	// start brings the system up cold, from checkpoint files to the first
	// oracle-correct answer; stop takes it down and may be called at any time.
	start() error
	stop()
	// op returns the operation i of the sequence performs.
	op(seq []int32) opFunc
	// prep, when non-nil, stages operation i's input before its clock starts.
	prep(seq []int32) func(worker, i int)
	cpu() (float64, error)
	peakRSSMB() (float64, error)
	counts() (engineCounts, error)
}

// outcome fills a record from one answer.
func (rec *record) outcome(in *input, class int, route string) {
	hard := route == string(engine.RouteHard)
	rec.ok = (hard || route == string(engine.RouteEasy)) && class >= 0 && class < dataset.NumClasses
	if !rec.ok {
		return
	}
	rec.hardRoute = hard
	if class == in.label {
		rec.right = 1
	}
	if class == in.oracle[routeIndex(hard)] {
		rec.matches = 1
	}
}

func routeIndex(hard bool) int {
	if hard {
		return 1
	}
	return 0
}

// httpTarget drives a cbnet-serve subprocess over keep-alive connections.
type httpTarget struct {
	env         *environment
	contentType string
	srv         *server
	conns       []*conn
}

func (t *httpTarget) start() error {
	srv, err := startServer(t.env.serveBin, t.env.ckpt)
	if err != nil {
		return err
	}
	t.srv = srv
	t.conns = []*conn{newConn(srv.url), newConn(srv.url)}
	in := &t.env.inputs[0]
	reply, status, err := t.conns[0].classify(in.body, t.contentType)
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	var rec record
	rec.outcome(in, reply.Class, reply.Route)
	if status != 200 || rec.matches != 1 {
		return fmt.Errorf("first answer is not the oracle's: status %d, class %d route %q, want class %d",
			status, reply.Class, reply.Route, in.oracle[routeIndex(in.hard)])
	}
	return nil
}

func (t *httpTarget) stop() {
	for _, c := range t.conns {
		c.close()
	}
	t.conns = nil
	if t.srv != nil {
		t.srv.stop()
		t.srv = nil
	}
}

func (t *httpTarget) op(seq []int32) opFunc {
	return func(w, i int, rec *record) {
		in := &t.env.inputs[seq[i]]
		reply, status, err := t.conns[w].classify(in.body, t.contentType)
		rec.status = status
		if err != nil || status != 200 {
			return
		}
		rec.outcome(in, reply.Class, reply.Route)
		rec.batch = reply.BatchSize
		rec.energyMJ = reply.EnergyEstimateMJ
		rec.wall = time.Duration(reply.WallLatencyMS * float64(time.Millisecond))
		rec.queue = time.Duration(reply.QueueWaitMS * float64(time.Millisecond))
	}
}

func (t *httpTarget) prep([]int32) func(int, int) { return nil }
func (t *httpTarget) cpu() (float64, error)       { return procCPU(t.srv.cmd.Process.Pid) }
func (t *httpTarget) peakRSSMB() (float64, error) { return peakRSSMB(t.srv.cmd.Process.Pid) }
func (t *httpTarget) counts() (engineCounts, error) {
	return fetchStats(t.srv.url)
}

// engineTarget drives an in-process engine configured as cbnet-serve ships
// it. CPU and memory are this process's, generator included.
type engineTarget struct {
	env *environment
	eng *engine.Engine
}

func (t *engineTarget) start() error {
	pipe, err := loadPipeline(t.env.ckpt)
	if err != nil {
		return err
	}
	t.eng = engine.New(pipe, serveEngineConfig())
	in := &t.env.inputs[0]
	res, err := t.eng.Submit(context.Background(), engine.Request{Pixels: in.pixels})
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	var rec record
	rec.outcome(in, res.Class, res.Route)
	if rec.matches != 1 {
		return fmt.Errorf("first answer is not the oracle's: class %d route %q", res.Class, res.Route)
	}
	return nil
}

func (t *engineTarget) stop() {
	if t.eng != nil {
		t.eng.Close()
		t.eng = nil
	}
}

func (t *engineTarget) op(seq []int32) opFunc {
	ctx := context.Background()
	return func(_, i int, rec *record) {
		in := &t.env.inputs[seq[i]]
		t0 := time.Now()
		res, err := t.eng.Submit(ctx, engine.Request{Pixels: in.pixels})
		rec.wall = time.Since(t0)
		if err != nil {
			return
		}
		rec.outcome(in, res.Class, res.Route)
		rec.batch = res.BatchSize
		rec.queue, rec.infer = res.QueueWait, res.Infer
		// The engine prices nothing; the benchmark prices the route the
		// result reports, which makes checkEnergyIdentity true by
		// construction here. Over HTTP the server's own figure is checked.
		rec.energyMJ = t.env.mjEasy
		if rec.hardRoute {
			rec.energyMJ = t.env.mjHard
		}
	}
}

func (t *engineTarget) prep([]int32) func(int, int) { return nil }
func (t *engineTarget) cpu() (float64, error)       { return selfCPU() }
func (t *engineTarget) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }
func (t *engineTarget) counts() (engineCounts, error) {
	st := t.eng.Stats()
	c := engineCounts{Rejected: st.Rejected, DeadlineExpired: st.DeadlineExpired, InferFailed: st.InferFailed}
	c.Routes = make([]routeCounts, len(st.Routes))
	for i, r := range st.Routes {
		c.Routes[i] = routeCounts{Images: r.Images, Batches: r.Batches}
	}
	return c, nil
}

// offlineTarget calls PlanSet.InferInto on full batches from one goroutine:
// only core, nn and tensor run.
type offlineTarget struct {
	env   *environment
	ps    *core.PlanSet
	x     *tensor.Tensor
	preds []int
}

func (t *offlineTarget) start() error {
	// One GEMM on one core, as engine.New sets it for its default worker
	// count on any host (workers × routes × gemm-threads ≤ GOMAXPROCS).
	tensor.SetGEMMThreads(1)
	pipe, err := loadPipeline(t.env.ckpt)
	if err != nil {
		return err
	}
	t.ps, err = pipe.Plans(batchRows)
	if err != nil {
		return err
	}
	t.x = tensor.New(batchRows, dataset.Pixels)
	t.preds = make([]int, batchRows)
	first := make([]int32, batchRows)
	for j := range first {
		first[j] = int32(j)
	}
	t.stage(first)
	t.ps.InferInto(t.preds, t.x)
	for j, c := range t.preds {
		if c != t.env.inputs[j].oracle[1] {
			return fmt.Errorf("first batch, row %d: class %d is not the oracle's %d", j, c, t.env.inputs[j].oracle[1])
		}
	}
	return nil
}

func (t *offlineTarget) stop() {}

func (t *offlineTarget) stage(idx []int32) {
	for j, i := range idx {
		copy(t.x.Data[j*dataset.Pixels:], t.env.inputs[i].pixels)
	}
}

// Operation i is the i-th run of batchRows consecutive sequence entries.
func (t *offlineTarget) prep(seq []int32) func(int, int) {
	return func(_, i int) { t.stage(seq[i*batchRows : (i+1)*batchRows]) }
}

func (t *offlineTarget) op(seq []int32) opFunc {
	return func(_, i int, rec *record) {
		t.ps.InferInto(t.preds, t.x)
		rec.ok, rec.hardRoute, rec.batch = true, true, batchRows
		rec.energyMJ = t.env.mjHard
		for j, idx := range seq[i*batchRows : (i+1)*batchRows] {
			in := &t.env.inputs[idx]
			if t.preds[j] == in.label {
				rec.right++
			}
			if t.preds[j] == in.oracle[1] {
				rec.matches++
			}
		}
	}
}

func (t *offlineTarget) cpu() (float64, error)         { return selfCPU() }
func (t *offlineTarget) peakRSSMB() (float64, error)   { return peakRSSMB(os.Getpid()) }
func (t *offlineTarget) counts() (engineCounts, error) { return engineCounts{}, nil }
