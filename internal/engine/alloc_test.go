package engine

import (
	"runtime/debug"
	"testing"
)

// TestRunBatchZeroAlloc pins the plan-backed worker's steady state: once
// its PlanSet is warm, running a fully traced hard-route batch — assemble
// input, emit queue/batch-form/execute/respond spans, execute the AE and
// classifier plans with per-step span and meter recording, argmax, answer
// every request — performs zero heap allocations (GOMAXPROCS is pinned to
// 1 by AllocsPerRun, the serial-kernel regime). The worker comes from
// e.newWorker, i.e. exactly the production wiring with tracing attached.
func TestRunBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; zero-alloc assertion only meaningful without -race")
	}
	const n = 16
	pipe := testPipeline()
	e := New(pipe, Config{MaxBatch: n, Workers: 1})
	defer e.Close()
	w := e.newWorker(e.hard, 99)

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
	if allocs := testing.AllocsPerRun(30, run); allocs != 0 {
		t.Errorf("plan-backed runBatch: %v allocs per warm batch, want 0", allocs)
	}
}
