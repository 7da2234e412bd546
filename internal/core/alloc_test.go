package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// The serving path's zero-allocation promise: once a pipeline's compiled
// plans have been built, steady-state classification performs no heap
// allocations — on one proc or several, at one row or a full batch of 32,
// under any micro-kernel. The count is taken at two procs at least
// (testing.AllocsPerRun would pin the run to one) and at fan-out width 1
// (tensor.SetGEMMThreads), the width engine.New sets and the one the plan
// compiler's promise is made for.

func allocTestPipeline() *Pipeline {
	br := models.NewBranchyLeNet(rng.New(11), 0.05)
	return &Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, rng.New(12)),
		Classifier: models.ExtractLightweight(br),
	}
}

func testBatch(n int) *tensor.Tensor {
	x := tensor.New(n, dataset.Pixels)
	x.RandUniform(rng.New(13), 0, 1)
	return x
}

// measureSteadyState warms the plans with two full passes, then counts the
// mallocs of 30 more at two procs or the host's, whichever is more. GC is
// disabled during the measurement so sync.Pool eviction can't charge
// unrelated allocations to the hot path. The fan-out width is pinned to 1,
// as engine.New pins it (and as TestDenseBackwardPackScratchAllocs does in
// nn): at the default width — GOMAXPROCS — a kernel without a blocked path
// (generic-8x8) would split every scalar product's rows through
// parallelRows, whose closures and goroutines are the allocations a wider
// width pays on purpose, not ones the serving path makes.
func measureSteadyState(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	defer tensor.SetGEMMThreads(tensor.SetGEMMThreads(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	f()
	const runs = 30
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / runs)
}

func TestClassifyDirectIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	for _, n := range []int{1, 16, 32} {
		x := testBatch(n)
		dst := make([]int, n)
		allocs := measureSteadyState(func() {
			pipe.ClassifyDirectInto(dst, x)
		})
		if allocs != 0 {
			t.Errorf("ClassifyDirectInto batch %d: %v allocs per warm call, want 0", n, allocs)
		}
	}
}

func TestInferIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	for _, n := range []int{1, 16, 32} {
		x := testBatch(n)
		dst := make([]int, n)
		allocs := measureSteadyState(func() {
			pipe.InferInto(dst, x)
		})
		if allocs != 0 {
			t.Errorf("InferInto batch %d: %v allocs per warm call, want 0", n, allocs)
		}
	}
}

// TestPlanSetZeroAlloc pins the engine worker's actual calls: a privately
// owned PlanSet classifying warm batches must not allocate.
func TestPlanSetZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	ps, err := pipe.Plans(32)
	if err != nil {
		t.Fatal(err)
	}
	x := testBatch(32)
	dst := make([]int, 32)
	allocs := measureSteadyState(func() { ps.InferInto(dst, x) })
	if allocs != 0 {
		t.Errorf("PlanSet.InferInto: %v allocs per warm call, want 0", allocs)
	}
	allocs = measureSteadyState(func() { ps.ClassifyDirectInto(dst, x) })
	if allocs != 0 {
		t.Errorf("PlanSet.ClassifyDirectInto: %v allocs per warm call, want 0", allocs)
	}
}

// TestPooledWrappersBounded keeps the convenience wrappers honest: Infer
// and ClassifyDirect may allocate only the prediction slice, not per-layer
// buffers.
func TestPooledWrappersBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc-bound assertion only meaningful without -race")
	}
	pipe := allocTestPipeline()
	x := testBatch(16)
	allocs := measureSteadyState(func() { _ = pipe.ClassifyDirect(x) })
	// One []int result; the pre-plan implementation allocated hundreds of
	// times per call.
	if allocs > 8 {
		t.Errorf("ClassifyDirect: %v allocs per warm call, want ≤ 8", allocs)
	}
	allocs = measureSteadyState(func() { _ = pipe.Infer(x) })
	if allocs > 8 {
		t.Errorf("Infer: %v allocs per warm call, want ≤ 8", allocs)
	}
}

// TestInferIntoMatchesInfer guards the plan-backed fast paths against each
// other and against the layers' own Forward, the ground truth.
func TestInferIntoMatchesInfer(t *testing.T) {
	pipe := allocTestPipeline()
	x := testBatch(16)
	want := pipe.Infer(x)
	dst := make([]int, 16)
	pipe.InferInto(dst, x)
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("InferInto[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	wantD := pipe.ClassifyDirect(x)
	pipe.ClassifyDirectInto(dst, x)
	for i := range wantD {
		if dst[i] != wantD[i] {
			t.Fatalf("ClassifyDirectInto[%d] = %d, want %d", i, dst[i], wantD[i])
		}
	}

	forward := make([]int, 16)
	pipe.Classifier.Forward(pipe.Convert(x), false).ArgMaxRows(forward)
	for i := range want {
		if want[i] != forward[i] {
			t.Fatalf("plan pred[%d] = %d, Forward = %d", i, want[i], forward[i])
		}
	}
	pipe.Classifier.Forward(x, false).ArgMaxRows(forward)
	for i := range wantD {
		if wantD[i] != forward[i] {
			t.Fatalf("plan direct pred[%d] = %d, Forward = %d", i, wantD[i], forward[i])
		}
	}
}

// TestPipelinePlanCacheInvalidation: replacing the pipeline's exported
// networks must invalidate the cached plan set, not keep serving the old
// weights.
func TestPipelinePlanCacheInvalidation(t *testing.T) {
	pipe := allocTestPipeline()
	x := testBatch(8)
	before := pipe.ClassifyDirect(x) // compile + cache plans for the original networks

	br2 := models.NewBranchyLeNet(rng.New(99), 0.05)
	pipe.Classifier = models.ExtractLightweight(br2)
	got := pipe.ClassifyDirect(x)

	// Reference: a set compiled from the current field just now.
	fresh, err := PlanSetFor(pipe.Classifier, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, 8)
	fresh.ClassifyDirectInto(want, x)
	differs := false
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pred[%d] = %d after classifier swap, want %d (stale plan cache?)", i, got[i], want[i])
		}
		differs = differs || want[i] != before[i]
	}
	if !differs {
		t.Fatal("the two classifiers agree on every row: the test cannot see a stale cache")
	}
}

// TestPipelinePlanGrowth re-compiles transparently when a batch exceeds the
// private plan set's capacity.
func TestPipelinePlanGrowth(t *testing.T) {
	pipe := allocTestPipeline()
	small := testBatch(4)
	preds := pipe.Infer(small)
	if len(preds) != 4 {
		t.Fatalf("got %d preds, want 4", len(preds))
	}
	big := testBatch(64) // beyond the lazily compiled minimum capacity of 16
	predsBig := pipe.Infer(big)
	if len(predsBig) != 64 {
		t.Fatalf("got %d preds, want 64", len(predsBig))
	}
	for i := 0; i < 4; i++ {
		if predsBig[i] != preds[i] {
			t.Fatalf("pred[%d] changed after plan growth: %d vs %d", i, predsBig[i], preds[i])
		}
	}
}

// mysteryLayer is an nn.Layer of a type the plan compiler has no step for.
type mysteryLayer struct{ *nn.ReLU }

// TestInferPanicsOnUncompilableClassifier: the pipeline runs on compiled
// plans only, so a classifier the compiler rejects panics with the
// compiler's error — network and layer named — on first use.
func TestInferPanicsOnUncompilableClassifier(t *testing.T) {
	pipe := allocTestPipeline()
	pipe.Classifier = nn.NewSequential("odd-net", append([]nn.Layer{mysteryLayer{nn.NewReLU("mystery")}}, pipe.Classifier.Layers...)...)
	defer func() {
		r := recover()
		if r == nil {
			return // the Error below has fired
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{"odd-net", "mystery"} {
			if !strings.Contains(msg, want) {
				t.Errorf("Infer panicked with %q, want it to name %q", msg, want)
			}
		}
	}()
	pipe.Infer(testBatch(2))
	t.Error("Infer ran a classifier the plan compiler rejects")
}
