// Package cbnet's root benchmark suite regenerates every table and figure
// of the paper (via the harness) and adds the ablation studies listed in
// README.md ("Reproduction substitutions") plus real host wall-clock benches
// of the inference engine.
//
// Run everything:
//
//	go test -bench=. -benchmem .
//
// The paper-reproduction benches train small systems once (shared fixture)
// and report the headline quantities via b.ReportMetric, so `-bench` output
// doubles as a compact experiment summary; full-size runs belong to
// cmd/cbnet-bench.
package cbnet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/harness"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
	"cbnet/internal/train"
)

var (
	fixtureOnce sync.Once
	fixture     *harness.Runner
)

// sharedRunner trains the three per-dataset systems once per bench binary.
func sharedRunner(b *testing.B) *harness.Runner {
	b.Helper()
	fixtureOnce.Do(func() {
		fixture = harness.NewRunner(harness.Options{
			TrainN: 800, TestN: 300, Seed: 42, Repetitions: 3, MaxAccuracyDrop: 0.03,
		})
	})
	return fixture
}

// ---------------------------------------------------------------------------
// Paper tables and figures.

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.FormatTableI()
	}
}

func BenchmarkTableII(b *testing.B) {
	r := sharedRunner(b)
	var rows []harness.TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = r.TableII()
		if err != nil {
			b.Fatal(err)
		}
	}
	byKey := map[string]harness.TableIIRow{}
	for _, row := range rows {
		byKey[row.Dataset+"/"+row.Model] = row
	}
	// Headline metrics: CBNet speedup vs LeNet and vs BranchyNet on the Pi.
	mnistL := byKey["MNIST/LeNet"]
	mnistC := byKey["MNIST/CBNet"]
	fmL := byKey["FMNIST/LeNet"]
	fmB := byKey["FMNIST/BranchyNet"]
	fmC := byKey["FMNIST/CBNet"]
	b.ReportMetric(mnistL.LatencyMS[0]/mnistC.LatencyMS[0], "mnist-speedup-vs-lenet")
	b.ReportMetric(fmL.LatencyMS[0]/fmC.LatencyMS[0], "fmnist-speedup-vs-lenet")
	b.ReportMetric(fmB.LatencyMS[0]/fmC.LatencyMS[0], "fmnist-speedup-vs-branchy")
	b.ReportMetric(fmC.EnergySavingsPct[0], "fmnist-pi-energy-savings-%")
	b.Logf("\n%s\n%s", harness.FormatTableII(rows), harness.SpeedupSummary(rows))
}

func BenchmarkFig3(b *testing.B) {
	r := sharedRunner(b)
	var pts []harness.Fig3Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = r.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		switch p.Dataset {
		case "MNIST":
			b.ReportMetric(p.SpeedupVsLeNet, "mnist-branchy-speedup")
		case "FMNIST":
			b.ReportMetric(p.SpeedupVsLeNet, "fmnist-branchy-speedup")
		}
	}
	b.Logf("\n%s", harness.FormatFig3(pts))
}

func BenchmarkFig5(b *testing.B) {
	r := sharedRunner(b)
	var bars []harness.Fig5Bar
	var err error
	for i := 0; i < b.N; i++ {
		bars, err = r.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	lat := map[string]float64{}
	for _, bar := range bars {
		lat[bar.Model] = bar.LatencyMS
	}
	b.ReportMetric(lat["AdaDeep"]/lat["CBNet"], "cbnet-speedup-vs-adadeep")
	b.ReportMetric(lat["SubFlow"]/lat["CBNet"], "cbnet-speedup-vs-subflow")
	b.Logf("\n%s", harness.FormatFig5(bars))
}

func benchScalability(b *testing.B, f dataset.Family) {
	r := sharedRunner(b)
	var series []harness.ScalSeries
	var err error
	for i := 0; i < b.N; i++ {
		series, err = r.FigScalability(f)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Headline: the Branchy−CBNet total-time gap at full ratio on the Pi.
	last := series[0].Points[len(series[0].Points)-1]
	b.ReportMetric(last.BranchyTimeS-last.CBNetTimeS, "pi-fullratio-gap-s")
	b.Logf("\n%s", harness.FormatScalability(f, series))
}

func BenchmarkFig6(b *testing.B) { benchScalability(b, dataset.MNIST) }
func BenchmarkFig7(b *testing.B) { benchScalability(b, dataset.FashionMNIST) }
func BenchmarkFig8(b *testing.B) { benchScalability(b, dataset.KMNIST) }

// ---------------------------------------------------------------------------
// Ablations (README.md, "Reproduction substitutions").

// BenchmarkAblationThreshold sweeps BranchyNet's entropy exit threshold on
// the trained MNIST system, mapping the exit-rate / accuracy / latency
// trade-off the paper resolved by per-dataset tuning.
func BenchmarkAblationThreshold(b *testing.B) {
	r := sharedRunner(b)
	sys, std, err := r.System(dataset.MNIST)
	if err != nil {
		b.Fatal(err)
	}
	pi := device.RaspberryPi4()
	orig := sys.Branchy.Threshold
	defer func() { sys.Branchy.Threshold = orig }()
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.01, 0.05, 0.2, 0.5, 1.0, 1.8} {
			sys.Branchy.Threshold = th
			acc, exit := sys.Branchy.Evaluate(std.Test)
			lat := core.BranchyLatency(pi, sys.Branchy, exit)
			if i == 0 {
				b.Logf("threshold %.2f: exit %.1f%% acc %.2f%% latency %.3fms",
					th, 100*exit, 100*acc, lat*1e3)
			}
		}
	}
}

// BenchmarkAblationBottleneck varies the converting autoencoder's encoder
// output width (Table I uses 32 for MNIST) and reports the final training
// loss — reconstruction MSE plus the L1 activity penalty — and downstream
// CBNet accuracy.
func BenchmarkAblationBottleneck(b *testing.B) {
	r := sharedRunner(b)
	sys, std, err := r.System(dataset.MNIST)
	if err != nil {
		b.Fatal(err)
	}
	res := sys.Branchy.InferDataset(std.Train)
	gen := rng.New(777)
	inputs, targets, err := core.BuildConversionPairs(std.Train, res, gen)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, width := range []int{8, 32, 128} {
			arch := models.TableIArch(dataset.MNIST)
			arch.Widths[2] = width
			ae := models.NewConvertingAE(arch, models.L1Coefficient, rng.New(uint64(width)))
			losses, err := train.Regressor(ae.Net, inputs, targets, train.Config{Epochs: 4, Seed: uint64(width)})
			if err != nil {
				b.Fatal(err)
			}
			pipe := &core.Pipeline{AE: ae, Classifier: sys.Lightweight}
			if i == 0 {
				b.Logf("bottleneck %3d: loss (MSE + L1) %.5f, CBNet accuracy %.2f%%",
					width, losses[len(losses)-1], 100*pipe.Accuracy(std.Test))
			}
		}
	}
}

// BenchmarkAblationL1 sweeps the activity-regularization coefficient
// (paper: 1e-7) and reports the encoder activation mass and accuracy.
func BenchmarkAblationL1(b *testing.B) {
	r := sharedRunner(b)
	sys, std, err := r.System(dataset.MNIST)
	if err != nil {
		b.Fatal(err)
	}
	res := sys.Branchy.InferDataset(std.Train)
	gen := rng.New(888)
	inputs, targets, err := core.BuildConversionPairs(std.Train, res, gen)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, lambda := range []float32{0, 1e-7, 1e-4} {
			ae := models.NewConvertingAE(models.TableIArch(dataset.MNIST), lambda, rng.New(99))
			if _, err := train.Regressor(ae.Net, inputs, targets, train.Config{Epochs: 4, Seed: 100}); err != nil {
				b.Fatal(err)
			}
			pipe := &core.Pipeline{AE: ae, Classifier: sys.Lightweight}
			if i == 0 {
				b.Logf("lambda %.0e: CBNet accuracy %.2f%%", lambda, 100*pipe.Accuracy(std.Test))
			}
		}
	}
}

// BenchmarkAblationTarget compares the paper's random-easy-image target
// against a class-prototype target (mean of the class's easy images).
func BenchmarkAblationTarget(b *testing.B) {
	r := sharedRunner(b)
	sys, std, err := r.System(dataset.MNIST)
	if err != nil {
		b.Fatal(err)
	}
	res := sys.Branchy.InferDataset(std.Train)
	gen := rng.New(999)
	inputs, randomTargets, err := core.BuildConversionPairs(std.Train, res, gen)
	if err != nil {
		b.Fatal(err)
	}
	// Prototype targets: per-class mean of easy images.
	protos := make([][]float32, dataset.NumClasses)
	counts := make([]int, dataset.NumClasses)
	for i, exited := range res.Exited {
		if !exited {
			continue
		}
		cls := std.Train.Labels[i]
		if protos[cls] == nil {
			protos[cls] = make([]float32, dataset.Pixels)
		}
		img := std.Train.Image(i)
		for j, v := range img {
			protos[cls][j] += v
		}
		counts[cls]++
	}
	protoTargets := tensor.New(std.Train.Len(), dataset.Pixels)
	for i := 0; i < std.Train.Len(); i++ {
		cls := std.Train.Labels[i]
		dst := protoTargets.Data[i*dataset.Pixels : (i+1)*dataset.Pixels]
		if counts[cls] == 0 {
			copy(dst, randomTargets.Data[i*dataset.Pixels:(i+1)*dataset.Pixels])
			continue
		}
		inv := 1 / float32(counts[cls])
		for j := range dst {
			dst[j] = protos[cls][j] * inv
		}
	}
	for i := 0; i < b.N; i++ {
		for _, mode := range []struct {
			name    string
			targets *tensor.Tensor
		}{
			{"random-easy (paper)", randomTargets},
			{"class-prototype", protoTargets},
		} {
			ae := models.NewConvertingAE(models.TableIArch(dataset.MNIST), models.L1Coefficient, rng.New(55))
			if _, err := train.Regressor(ae.Net, inputs, mode.targets, train.Config{Epochs: 4, Seed: 56}); err != nil {
				b.Fatal(err)
			}
			pipe := &core.Pipeline{AE: ae, Classifier: sys.Lightweight}
			if i == 0 {
				b.Logf("target=%s: CBNet accuracy %.2f%%", mode.name, 100*pipe.Accuracy(std.Test))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Host wall-clock benches of the actual inference engine (not the device
// model): per-image forward passes on this machine's CPU.

func hostBatch(n int) *tensor.Tensor {
	r := rng.New(7)
	x := tensor.New(n, dataset.Pixels)
	x.RandUniform(r, 0, 1)
	return x
}

// hardBatches splits 64 degraded FashionMNIST renders — what the
// benchmark's hard pool draws from, zero pixels and all — into batches of n.
func hardBatches(n int) []*tensor.Tensor {
	const renders = 64
	r := rng.New(9)
	px := make([]float32, 0, renders*dataset.Pixels)
	for i := range renders {
		px = append(px, dataset.RenderSample(dataset.FashionMNIST, i%dataset.NumClasses, true, r)...)
	}
	xs := make([]*tensor.Tensor, renders/n)
	for i := range xs {
		xs[i] = tensor.FromSlice(px[i*n*dataset.Pixels:(i+1)*n*dataset.Pixels], n, dataset.Pixels)
	}
	return xs
}

func BenchmarkHostCBNetPipeline(b *testing.B) {
	br := models.NewBranchyLeNet(rng.New(4), 0.05)
	pipe := &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(5)),
		Classifier: models.ExtractLightweight(br),
	}
	x := hostBatch(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pipe.Infer(x)
	}
}

// BenchmarkPlanExecute is the engine worker's actual hot loop: the compiled
// AE and classifier plans executed back to back (pipeline-b16), then each
// plan alone, and LeNet's beside them, at the paper's one hard image and at
// the engine's batch — the classifier also at two, the batch /classify runs
// under two connections; the AE also at the short batches a mixed stream's
// hard route runs (3, 7 and 12 rows beside the whole tiles of 8 and 16) —
// in GFLOP/s of its cost model: the step-level figures the benchmark's
// nn.clf_gflops_b32 and core.convert_us_b1 move with. hostBatch's uniform
// pixels have no zeros, so the -hard cases run the classifier at one and
// two images and the FashionMNIST AE the benchmark serves (784-512-256-
// 128-784) at one on degraded FashionMNIST renders, built as the
// benchmark's hard pool is, whose zero pixels the one-row gemv skips; 64
// of them rotate, so no branch learns one input.
// -benchmem must report 0 allocs/op throughout.
func BenchmarkPlanExecute(b *testing.B) {
	br := models.NewBranchyLeNet(rng.New(4), 0.05)
	pipe := &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(5)),
		Classifier: models.ExtractLightweight(br),
	}
	b.Run("pipeline-b16", func(b *testing.B) {
		ps, err := pipe.Plans(16)
		if err != nil {
			b.Fatal(err)
		}
		x := hostBatch(16)
		dst := make([]int, 16)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ps.InferInto(dst, x)
		}
		b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
	})
	for _, m := range []struct {
		name    string
		net     *nn.Sequential
		batches []int
		hard    bool // hardBatches' renders in place of hostBatch's pixels
	}{
		{"clf", pipe.Classifier, []int{1, 2, 32}, false},
		{"ae", pipe.AE.Net, []int{1, 3, 7, 8, 12, 16, 32}, false},
		{"lenet", models.NewLeNet(rng.New(1)), []int{1, 32}, false},
		{"clf-hard", pipe.Classifier, []int{1, 2}, true},
		{"ae-fmnist-hard", models.NewTableIAE(dataset.FashionMNIST, rng.New(6)).Net, []int{1}, true},
	} {
		for _, n := range m.batches {
			b.Run(fmt.Sprintf("%s/b%d", m.name, n), func(b *testing.B) {
				p, err := nn.Compile(m.net, n)
				if err != nil {
					b.Fatal(err)
				}
				var flops int64
				for _, st := range p.Steps() {
					flops += int64(n) * st.FLOPsPerImage
				}
				xs := []*tensor.Tensor{hostBatch(n)}
				if m.hard {
					xs = hardBatches(n)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Execute(nil, xs[i%len(xs)])
				}
				b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

// BenchmarkHostClassifyDirectPlan is the zero-allocation easy-route path at
// the single-image latency point, on the compiled classifier plan.
func BenchmarkHostClassifyDirectPlan(b *testing.B) {
	br := models.NewBranchyLeNet(rng.New(4), 0.05)
	pipe := &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(5)),
		Classifier: models.ExtractLightweight(br),
	}
	x := hostBatch(1)
	dst := make([]int, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipe.ClassifyDirectInto(dst, x)
	}
}

// BenchmarkHostBranchyInfer times one warm run of BranchyNet's exit cascade
// over a 16-row batch.
func BenchmarkHostBranchyInfer(b *testing.B) {
	br := models.NewBranchyLeNet(rng.New(6), 0.2)
	const n = 16
	c := br.CompileCascade(n)
	x := hostBatch(n)
	res := models.InferenceResult{Pred: make([]int, n), Exited: make([]bool, n), BranchEntropy: make([]float64, n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(res, x, br.Threshold)
	}
}

// BenchmarkHostTrainStep measures one 32-row training epoch of each
// trainer: BranchyNet's joint minibatch, the FashionMNIST autoencoder
// through train.Regressor and LeNet through train.Classifier. Each epoch
// compiles its training plans, as a training run does.
func BenchmarkHostTrainStep(b *testing.B) {
	ds := dataset.MustGenerate(dataset.Config{Family: dataset.MNIST, N: 32, HardFraction: 0.2, Seed: 8})
	fm := dataset.MustGenerate(dataset.Config{Family: dataset.FashionMNIST, N: 32, HardFraction: 0.2, Seed: 10})
	b.Run("branchy", func(b *testing.B) {
		br := models.NewBranchyLeNet(rng.New(9), 0.05)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := br.TrainJointly(ds, train.Config{Epochs: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ae-fmnist", func(b *testing.B) {
		ae := models.NewTableIAE(dataset.FashionMNIST, rng.New(11))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := train.Regressor(ae.Net, fm.Images, fm.Images, train.Config{Epochs: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lenet", func(b *testing.B) {
		net := models.NewLeNet(rng.New(12))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := train.Classifier(net, ds, train.Config{Epochs: 1, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Inference-engine benches: batched vs unbatched, routed vs always-convert.

func benchPipeline() *core.Pipeline {
	br := models.NewBranchyLeNet(rng.New(31), 0.05)
	return &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(32)),
		Classifier: models.ExtractLightweight(br),
	}
}

// benchTraffic builds a representative request mix: 80% clean renders, 20%
// degraded ones, matching the generator's default hard fraction and the
// paper's high early-exit rates. The same images feed the baseline and the
// engine so comparisons are apples to apples.
func benchTraffic() [][]float32 {
	r := rng.New(33)
	imgs := make([][]float32, 64)
	for i := range imgs {
		imgs[i] = dataset.RenderSample(dataset.MNIST, i%dataset.NumClasses, i%5 == 4, r)
	}
	return imgs
}

// BenchmarkEngineSequentialBaseline is the pre-engine serving shape: one
// 1-row full-pipeline forward per request — every image converted, no
// batching, no concurrency.
func BenchmarkEngineSequentialBaseline(b *testing.B) {
	pipe := benchPipeline()
	imgs := benchTraffic()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := imgs[i%len(imgs)]
		x := tensor.FromSlice(append([]float32(nil), img...), 1, dataset.Pixels)
		_ = pipe.Infer(x)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// BenchmarkEngineThroughput is the headline serving comparison: the engine
// as shipped (micro-batching + hardness routing + worker pool) on the same
// traffic mix as the sequential baseline. Routing lets the ~80% easy
// requests skip the autoencoder — the dominant share of pipeline cost — so
// engine imgs/s lands well above 2× the baseline even on a single core;
// batching and the worker pool widen the gap on multi-core hosts.
func BenchmarkEngineThroughput(b *testing.B) {
	pipe := benchPipeline()
	e := engine.New(pipe, engine.Config{
		MaxBatch: 32, QueueDepth: 4096,
	})
	defer e.Close()
	imgs := benchTraffic()
	ctx := context.Background()
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			img := imgs[int(next.Add(1))%len(imgs)]
			if _, err := e.Submit(ctx, engine.Request{Pixels: img}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
	for _, r := range e.Stats().Routes {
		if r.Batches > 0 {
			b.ReportMetric(r.MeanBatchSize, "mean-batch-"+r.Route)
		}
	}
}

// BenchmarkEngineBatchedAlwaysConvert isolates the batching/pipelining gain
// with every request forced down the AE route (IncludeConverted): identical
// per-image work to the sequential baseline. On a single core this mostly
// measures dense-layer GEMM amortisation; with more cores the worker pool
// multiplies it.
func BenchmarkEngineBatchedAlwaysConvert(b *testing.B) {
	pipe := benchPipeline()
	e := engine.New(pipe, engine.Config{
		MaxBatch: 32, QueueDepth: 4096,
	})
	defer e.Close()
	imgs := benchTraffic()
	ctx := context.Background()
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			img := imgs[int(next.Add(1))%len(imgs)]
			if _, err := e.Submit(ctx, engine.Request{Pixels: img, IncludeConverted: true}); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// benchSingleStream measures single-stream request latency through the
// engine (MaxBatch 1: no coalescing delay), routed by hardness or forced
// down the AE route.
func benchSingleStream(b *testing.B, routed bool, img []float32) {
	pipe := benchPipeline()
	e := engine.New(pipe, engine.Config{MaxBatch: 1, Workers: 1})
	defer e.Close()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Submit(ctx, engine.Request{Pixels: img, IncludeConverted: !routed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineRoutedEasy sends a clean render through the routed engine:
// the hardness heuristic steers it down the classifier-only path, so per-op
// latency must come in below the always-convert variant.
func BenchmarkEngineRoutedEasy(b *testing.B) {
	img := dataset.RenderSample(dataset.MNIST, 4, false, rng.New(34))
	if name, _ := engine.RouteOf(img); name != engine.RouteEasy {
		b.Fatal("benchmark render unexpectedly scored hard")
	}
	benchSingleStream(b, true, img)
}

// BenchmarkEngineAlwaysConvertEasy is the paper's always-convert baseline on
// the identical easy image: AE + classifier for every request.
func BenchmarkEngineAlwaysConvertEasy(b *testing.B) {
	img := dataset.RenderSample(dataset.MNIST, 4, false, rng.New(34))
	benchSingleStream(b, false, img)
}

// BenchmarkPlanExecuteTraced is BenchmarkPlanExecute with the observability
// layer attached (a span ring, the engine worker's production wiring). Read
// the two together: the gap is the tracing overhead, bounded by
// TestTracingOverhead.
func BenchmarkPlanExecuteTraced(b *testing.B) {
	br := models.NewBranchyLeNet(rng.New(4), 0.05)
	pipe := &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(5)),
		Classifier: models.ExtractLightweight(br),
	}
	ps, err := pipe.Plans(16)
	if err != nil {
		b.Fatal(err)
	}
	ps.EnableTracing(trace.NewRecorder(256))
	x := hostBatch(16)
	dst := make([]int, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps.InferInto(dst, x)
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "imgs/s")
}

// TestTracingOverhead enforces the observability layer's hard budget:
// fully traced plan execution must stay within 2% of untraced (the overhead
// itself is one span emitted per step, well under 1%). The two sets run
// in short alternating rounds and an attempt is read as the median of the
// traced/untraced ratios of adjacent rounds, so a host that changes speed or
// runs other packages' tests meanwhile moves both sides of a pair alike
// instead of deciding the verdict; what noise is left in the median is damped
// by passing on the first attempt inside the budget.
func TestTracingOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing rounds take seconds")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the traced and untraced paths unequally")
	}
	br := models.NewBranchyLeNet(rng.New(4), 0.05)
	pipe := &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(5)),
		Classifier: models.ExtractLightweight(br),
	}
	plain, err := pipe.Plans(16)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := pipe.Plans(16)
	if err != nil {
		t.Fatal(err)
	}
	traced.EnableTracing(trace.NewRecorder(256))
	x := hostBatch(16)
	dst := make([]int, 16)
	const (
		pairs  = 160
		calls  = 5 // per round: a few ms, short against host drift
		budget = 1.02
	)
	round := func(ps *core.PlanSet) float64 {
		start := time.Now()
		for i := 0; i < calls; i++ {
			ps.InferInto(dst, x)
		}
		return float64(time.Since(start))
	}
	round(plain) // warm both outside the measured rounds
	round(traced)

	ratios := make([]float64, pairs)
	var worst float64
	for attempt := 0; attempt < 3; attempt++ {
		for i := range ratios {
			if i%2 == 0 { // alternate which side of the pair goes first
				p := round(plain)
				ratios[i] = round(traced) / p
			} else {
				tr := round(traced)
				ratios[i] = tr / round(plain)
			}
		}
		sort.Float64s(ratios)
		median := ratios[pairs/2]
		t.Logf("attempt %d: traced/untraced over %d paired rounds: median %.4f, quartiles %.4f–%.4f",
			attempt, pairs, median, ratios[pairs/4], ratios[3*pairs/4])
		if median <= budget {
			return
		}
		worst = max(worst, median)
	}
	t.Errorf("traced execution consistently over budget: worst median ratio %.4f > %.2f", worst, budget)
}
