package engine

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cbnet/internal/tensor"
)

// TestRunBatchZeroAlloc pins the plan-backed worker's steady state: once
// its PlanSet is warm, running a fully traced hard-route batch — assemble
// input, emit queue/batch-form/execute/respond spans, execute the AE and
// classifier plans with per-step span and meter recording, argmax, answer
// every request — performs zero heap allocations and starts no goroutine.
// The count is taken at two procs at least (testing.AllocsPerRun would pin
// one, where nothing could fan out anyway) and under both GEMM dispatches:
// the host's, and the scalar one a CPU without an FMA kernel gets, whose
// products would split their rows at any fan-out width but the 1 New sets.
// The worker comes from e.newWorker, i.e. exactly the production wiring
// with tracing attached.
func TestRunBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	for _, d := range []struct {
		name    string
		blocked bool
	}{{"host-dispatch", tensor.BlockedKernelEnabled()}, {"scalar-dispatch", false}} {
		t.Run(d.name, func(t *testing.T) {
			// Flipped before New: a plan binds its operands to the dispatch
			// it was compiled under.
			defer tensor.SetBlockedKernelForTest(tensor.SetBlockedKernelForTest(d.blocked))
			const n = 16
			e := New(testPipeline(), Config{MaxBatch: n, Workers: 1})
			defer e.Close()
			w := e.newWorker(e.hard)

			batch := make([]*request, n)
			for i := range batch {
				batch[i] = &request{id: uint64(i), pixels: hardImage(uint64(i)), done: make(chan outcome, 1)}
			}
			batch[0].tOpen = 1 // exercise the batch-form span emission too
			run := func() {
				e.runBatch(e.hard, batch, w)
				for _, r := range batch {
					<-r.done // drain so the buffered channels are reusable
				}
			}
			run()
			run()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 30
			goroutines := runtime.NumGoroutine()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			if allocs := (after.Mallocs - before.Mallocs) / runs; allocs != 0 {
				t.Errorf("plan-backed runBatch: %d allocs per warm batch, want 0", allocs)
			}
			if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
				t.Errorf("plan-backed runBatch left %d new goroutines", extra)
			}
		})
	}
}
