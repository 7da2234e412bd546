//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/generalize"
	"cbnet/internal/nn"
	"cbnet/internal/serve"
	"cbnet/internal/tensor"
)

// The benchmark's own span log. One bench.request span per operation runs
// from its due time to its completion and carries the operation index as the
// id its children share. The children are built from what the layers report
// about themselves: their durations are measured by the layer, their offsets
// inside the parent are placed (centred, then in call order), not measured.
// Spans inside the program are a later change.
const (
	spanRequest = "bench.request" // due → done, timed by the generator
	spanSubmit  = "serve+engine"  // Engine.Submit wall time: wallLatencyMs over HTTP
	spanQueue   = "engine.queue"  // Result.QueueWait / queueWaitMs
	spanInfer   = "engine.infer"  // Result.Infer; the HTTP reply does not carry it
)

type span struct {
	name, parent string
	id           int
	start, dur   int64
}

// spanLog keeps spans in memory, one slice per generator worker so that
// recording takes no lock, and writes them out after the run has ended.
type spanLog struct {
	perWorker [][]span
}

func newSpanLog(workers, ops int) *spanLog {
	l := &spanLog{perWorker: make([][]span, workers)}
	for w := range l.perWorker {
		l.perWorker[w] = make([]span, 0, 4*ops/workers+4)
	}
	return l
}

// record appends the spans of one finished operation.
func (l *spanLog) record(w, i int, rec *record) {
	s := l.perWorker[w]
	s = append(s, span{name: spanRequest, id: i, start: rec.due, dur: rec.end - rec.due})
	if rec.wall > 0 {
		wall := int64(rec.wall)
		at := rec.start + (rec.end-rec.start-wall)/2
		s = append(s, span{name: spanSubmit, parent: spanRequest, id: i, start: at, dur: wall})
		if rec.ok {
			s = append(s, span{name: spanQueue, parent: spanSubmit, id: i, start: at, dur: int64(rec.queue)})
			if rec.infer > 0 {
				s = append(s, span{name: spanInfer, parent: spanSubmit, id: i, start: at + int64(rec.queue), dur: int64(rec.infer)})
			}
		}
	}
	l.perWorker[w] = s
}

// meanUs returns the mean duration, in microseconds, of the spans called
// name, taken over count operations (an operation without the span adds 0).
func (l *spanLog) meanUs(name string, count int) float64 {
	var total int64
	for _, spans := range l.perWorker {
		for i := range spans {
			if spans[i].name == name {
				total += spans[i].dur
			}
		}
	}
	return float64(total) / 1e3 / float64(count)
}

// write stores the log as JSON lines under benchmark/out/.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for _, spans := range l.perWorker {
		for _, s := range spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, s.name...)
			line = append(line, `","parent":"`...)
			line = append(line, s.parent...)
			line = append(line, `","id":`...)
			line = strconv.AppendInt(line, int64(s.id), 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, `,"dur_ns":`...)
			line = strconv.AppendInt(line, s.dur, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is what the in-process replay measures by timing calls into
// the layers' public functions, one layer at a time, on the first poolSize
// inputs of the workload's sequence.
type layerTimes struct {
	scoreNs                                                      float64
	convertUsB1, classifyUsB1, convertUsB32, classifyUsB32       float64
	plansCompileMs, ckptLoadMs                                   float64
	aeGflopsB32, clfGflopsB32                                    float64
	aeFlopsPerImg, clfFlopsPerImg, aeBytesPerImg, clfBytesPerImg float64
	executeAllocsB32                                             float64
	gemm256, gemmConv2, gemmConv3, gemv                          float64

	// Only where the workload runs the layer; zero elsewhere.
	serveHTTPUs, serveOverheadUs, serveAllocsPerReq float64
	submitOverheadUs, inferUsPerBatch               float64
}

// replayLayers times each layer on its own. A content type adds
// Server.ServeHTTP on an httptest recorder; withEngine adds Engine.Submit
// from a single caller.
func replayLayers(env *environment, seq []int32, contentType string, withEngine bool) (layerTimes, error) {
	var lt layerTimes
	n := min(poolSize, len(seq))
	n -= n % batchRows
	in := make([]input, n)
	for i := range in {
		in[i] = env.inputs[seq[i]]
	}

	t0 := time.Now()
	pipe, err := loadPipeline(env.ckpt)
	if err != nil {
		return lt, err
	}
	lt.ckptLoadMs = msSince(t0)

	// The engine comes first: building it sets the process-wide GEMM thread
	// count the way the live system under test had it, so the kernel probes
	// below run as the workload's kernels did.
	if withEngine {
		eng := engine.New(pipe, serveEngineConfig())
		logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
		srv := serve.NewWithOptions(pipe, eng, piProfile, family, serve.Options{Logger: logger})
		defer srv.Close()
		if contentType != "" {
			if err := replayServe(&lt, srv, in, contentType); err != nil {
				return lt, err
			}
		}
		if err := replaySubmit(&lt, eng, in); err != nil {
			return lt, err
		}
	}

	t0 = time.Now()
	for _, x := range in {
		generalize.HardnessScore(x.pixels)
	}
	lt.scoreNs = float64(time.Since(t0).Nanoseconds()) / float64(n)

	t0 = time.Now()
	ps, err := pipe.Plans(batchRows)
	if err != nil {
		return lt, err
	}
	lt.plansCompileMs = msSince(t0)

	preds := make([]int, batchRows)
	var convert, classify time.Duration
	for _, x := range in {
		row := tensor.FromSlice(x.pixels, 1, dataset.Pixels)
		t0 = time.Now()
		ps.Convert(row)
		t1 := time.Now()
		ps.ClassifyDirectInto(preds[:1], row)
		convert += t1.Sub(t0)
		classify += time.Since(t1)
	}
	lt.convertUsB1 = us(convert) / float64(n)
	lt.classifyUsB1 = us(classify) / float64(n)

	batches := make([]*tensor.Tensor, n/batchRows)
	for b := range batches {
		batches[b] = stack(in[b*batchRows : (b+1)*batchRows])
	}
	convert, classify = 0, 0
	for _, x := range batches {
		t0 = time.Now()
		ps.Convert(x)
		t1 := time.Now()
		ps.ClassifyDirectInto(preds, x)
		convert += t1.Sub(t0)
		classify += time.Since(t1)
	}
	lt.convertUsB32 = us(convert) / float64(len(batches))
	lt.classifyUsB32 = us(classify) / float64(len(batches))

	aePlan, err := pipe.AE.CompilePlan(batchRows)
	if err != nil {
		return lt, err
	}
	clfPlan, err := nn.Compile(pipe.Classifier, batchRows)
	if err != nil {
		return lt, err
	}
	lt.aeFlopsPerImg, lt.aeBytesPerImg = planCost(aePlan)
	lt.clfFlopsPerImg, lt.clfBytesPerImg = planCost(clfPlan)
	aePlan.Execute(nil, batches[0])
	clfPlan.Execute(nil, batches[0])
	var aeTime, clfTime time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, x := range batches {
		t0 = time.Now()
		aePlan.Execute(nil, x)
		t1 := time.Now()
		clfPlan.Execute(nil, x)
		aeTime += t1.Sub(t0)
		clfTime += time.Since(t1)
	}
	runtime.ReadMemStats(&ms1)
	lt.executeAllocsB32 = float64(ms1.Mallocs-ms0.Mallocs) / float64(2*len(batches))
	lt.aeGflopsB32 = lt.aeFlopsPerImg * float64(n) / float64(aeTime.Nanoseconds())
	lt.clfGflopsB32 = lt.clfFlopsPerImg * float64(n) / float64(clfTime.Nanoseconds())

	lt.gemm256 = gemmGflops(256, 256, 256)
	lt.gemmConv2 = gemmGflops(48, 75, 3200)
	lt.gemmConv3 = gemmGflops(256, 1200, 32)
	lt.gemv = gemmGflops(1, 784, 128)
	return lt, nil
}

// replayServe times Server.ServeHTTP on an httptest recorder. Requests and
// recorders are built first so that the allocation count is the handler's
// (and the engine's behind it); the first pass warms the plans.
func replayServe(lt *layerTimes, srv *serve.Server, in []input, contentType string) error {
	var total, wall time.Duration
	var ms0, ms1 runtime.MemStats
	for pass := 0; pass < 2; pass++ {
		reqs := make([]*http.Request, len(in))
		recs := make([]*httptest.ResponseRecorder, len(in))
		for i, x := range in {
			reqs[i] = httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(x.body))
			reqs[i].Header.Set("Content-Type", contentType)
			recs[i] = httptest.NewRecorder()
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for i := range reqs {
			srv.ServeHTTP(recs[i], reqs[i])
		}
		total = time.Since(t0)
		runtime.ReadMemStats(&ms1)
		wall = 0
		for i, rec := range recs {
			if rec.Code != http.StatusOK {
				return fmt.Errorf("replay: ServeHTTP answered %d: %s", rec.Code, rec.Body.String())
			}
			var reply classifyReply
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				return fmt.Errorf("replay: decoding reply %d: %w", i, err)
			}
			wall += time.Duration(reply.WallLatencyMS * float64(time.Millisecond))
		}
	}
	n := float64(len(in))
	lt.serveHTTPUs = us(total) / n
	lt.serveOverheadUs = us(total-wall) / n
	lt.serveAllocsPerReq = float64(ms1.Mallocs-ms0.Mallocs) / n
	return nil
}

// replaySubmit times Engine.Submit from one caller on an otherwise idle
// engine: what is left of the call after the queue wait and the forward pass
// the engine reports is admission, routing, delivery and telemetry.
func replaySubmit(lt *layerTimes, eng *engine.Engine, in []input) error {
	ctx := context.Background()
	var overhead, infer time.Duration
	for pass := 0; pass < 2; pass++ {
		overhead, infer = 0, 0
		for _, x := range in {
			t0 := time.Now()
			res, err := eng.Submit(ctx, engine.Request{Pixels: x.pixels})
			wall := time.Since(t0)
			if err != nil {
				return fmt.Errorf("replay: Submit: %w", err)
			}
			overhead += wall - res.QueueWait - res.Infer
			infer += res.Infer
		}
	}
	lt.submitOverheadUs = us(overhead) / float64(len(in))
	lt.inferUsPerBatch = us(infer) / float64(len(in))
	return nil
}

// planCost sums the plan compiler's cost model over a plan's steps. Both
// numbers are computed from tensor sizes, not measured; the bytes are the
// activation traffic per image plus the parameter traffic of one execution
// shared by a full batch.
func planCost(p *nn.Plan) (flopsPerImg, bytesPerImg float64) {
	for _, st := range p.Steps() {
		flopsPerImg += float64(st.FLOPsPerImage)
		bytesPerImg += float64(st.BytesPerImage) + float64(st.FixedBytes)/batchRows
	}
	return flopsPerImg, bytesPerImg
}

// gemmGflops times tensor.GEMM on an (m×k)·(k×n) product and returns the
// median of five timed chunks of at least 20 ms each.
func gemmGflops(m, k, n int) float64 {
	a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	once := func() { tensor.GEMM(a, b, c, m, k, n, 1, 0) }
	once()
	t0 := time.Now()
	once()
	iters := int(20*time.Millisecond/(time.Since(t0)+1)) + 1
	chunks := make([]float64, 5)
	for i := range chunks {
		t0 = time.Now()
		for j := 0; j < iters; j++ {
			once()
		}
		chunks[i] = 2 * float64(m) * float64(k) * float64(n) * float64(iters) / float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(chunks)
	return chunks[len(chunks)/2]
}

func us(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e3 }
func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }
