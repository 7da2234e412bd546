package tensor

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// parallelRows is the package's one fan-out and SetGEMMThreads the one owner
// of its width: these tests pin the width's contract, the light-row floor
// under it, and that every row-sliced entry point obeys it.

// forceParallel pins the fan-out width for a test and restores it.
func forceParallel(t testing.TB, threads int) {
	t.Helper()
	prev := SetGEMMThreads(threads)
	t.Cleanup(func() { SetGEMMThreads(prev) })
}

// TestSetGEMMThreads pins the knob's clamp/restore contract.
func TestSetGEMMThreads(t *testing.T) {
	orig := GEMMThreads()
	defer SetGEMMThreads(orig)
	if prev := SetGEMMThreads(3); prev != orig {
		t.Fatalf("SetGEMMThreads returned prev=%d, want %d", prev, orig)
	}
	if got := GEMMThreads(); got != 3 {
		t.Fatalf("GEMMThreads()=%d after SetGEMMThreads(3)", got)
	}
	SetGEMMThreads(0)
	if got := GEMMThreads(); got != 1 {
		t.Fatalf("GEMMThreads()=%d after SetGEMMThreads(0), want clamp to 1", got)
	}
	// Oversubscription is allowed: the width, not the machine, decides.
	SetGEMMThreads(runtime.GOMAXPROCS(0) + 7)
	if got := GEMMThreads(); got != runtime.GOMAXPROCS(0)+7 {
		t.Fatalf("GEMMThreads()=%d, oversubscription should be honored", got)
	}
}

// mallocsPerRun counts mallocs per warm call of f at the procs the caller
// has set (testing.AllocsPerRun pins one proc, where a fan-out sized from
// the procs would hide), with the collector off.
func mallocsPerRun(runs int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// TestFanOutWidthIsGEMMThreads: the width SetGEMMThreads holds, not the
// machine's proc count, decides every fan-out in the package. At width 1 on
// two or more procs, shapes far above parallelThreshold run their whole
// range in one call on the calling goroutine and allocate nothing; at width
// 4 on a single proc the same shapes split four ways. The scalar GEMM paths
// are reached with the blocked dispatch off, as on a CPU without an FMA
// kernel.
func TestFanOutWidthIsGEMMThreads(t *testing.T) {
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(false))
	const rows, k, n = 256, 64, 512 // light rows; product and epilogue sweep both far above the threshold
	a := make([]float32, rows*k)
	b := make([]float32, k*n)
	c := make([]float32, rows*n)
	bias := make([]float32, n)
	fillDeterministic(a, 103)
	fillDeterministic(b, 107)
	fillDeterministic(bias, 109)
	const matRows = 8 * rows // the row sweeps do a flop an element: a matrix far above the threshold by itself
	mat := FromSlice(make([]float32, matRows*n), matRows, n)
	fillDeterministic(mat.Data, 113)
	rowVec, colAcc := FromSlice(bias, n), New(n)
	x, y := make([]float32, n), make([]float32, matRows)
	fillDeterministic(x, 127)
	ep := Epilogue{Act: EpActReLU, ColBias: bias}

	// calls and covered record how a callback-taking entry point cut [0, rows).
	var calls, covered atomic.Int64
	count := func(i0, i1 int) {
		calls.Add(1)
		covered.Add(int64(i1 - i0))
	}
	entries := []struct {
		name        string
		rows, flops int  // what the entry point hands maxRowWorkers
		ranged      bool // run passes count as the range function
		run         func()
	}{
		{"parallelRows", rows, rows * n * k, true, func() { parallelRows(rows, rows*n*k, count) }},
		{"ParallelFor", rows, rows * n * k, true, func() { ParallelFor(rows, n*k, count) }},
		{"gemmNaive", rows, rows * n * k, false, func() { gemmNaive(a, b, c, rows, k, n, 1, 0) }},
		{"GEMMEpilogue", rows, 4 * rows * n, false, func() { GEMMEpilogue(a, b, c, rows, k, n, ep, nil) }},
		{"MatVecInto", matRows, matRows * n, false, func() { MatVecInto(y, mat.Data, x, matRows, n) }},
		{"AddRowVector", matRows, matRows * n, false, func() { mat.AddRowVector(rowVec) }},
		{"SumRowsInto", n, n * matRows, false, func() { mat.SumRowsInto(colAcc) }},
	}

	procs := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	defer runtime.GOMAXPROCS(procs)
	forceParallel(t, 1)
	for _, e := range entries {
		goroutines := runtime.NumGoroutine()
		const runs = 10
		calls.Store(0)
		covered.Store(0)
		if allocs := mallocsPerRun(runs, e.run); allocs != 0 && !raceEnabled {
			t.Errorf("width 1: %s allocates %d per call, want 0 (it fanned out)", e.name, allocs)
		}
		if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
			t.Errorf("width 1: %s left %d new goroutines", e.name, extra)
		}
		if e.ranged && (calls.Load() != runs+1 || covered.Load() != (runs+1)*rows) {
			t.Errorf("width 1: %s made %d calls covering %d rows in %d runs, want one call with the whole range each",
				e.name, calls.Load(), covered.Load(), runs+1)
		}
	}
	c1 := append([]float32(nil), c...) // GEMMEpilogue's output at width 1

	// Width 4 on one proc: the machine has nothing to offer, the width
	// splits all the same.
	runtime.GOMAXPROCS(1)
	SetGEMMThreads(4)
	for _, e := range entries {
		if got := maxRowWorkers(e.rows, e.flops); got != 4 {
			t.Errorf("width 4: %s would split %d ways (rows=%d flops=%d), want 4", e.name, got, e.rows, e.flops)
		}
		calls.Store(0)
		covered.Store(0)
		if allocs := mallocsPerRun(1, e.run); allocs == 0 {
			t.Errorf("width 4, GOMAXPROCS 1: %s allocates nothing, so it started no goroutine", e.name)
		}
		if e.ranged && (calls.Load() != 2*4 || covered.Load() != 2*rows) {
			t.Errorf("width 4, GOMAXPROCS 1: %s made %d calls covering %d rows in 2 runs, want 4 ranges a run",
				e.name, calls.Load(), covered.Load())
		}
	}
	GEMMEpilogue(a, b, c, rows, k, n, ep, nil)
	if i, ok := bitsEqual(c, c1); !ok {
		t.Errorf("GEMMEpilogue at width 4 differs from width 1 at [%d]: %v vs %v", i, c[i], c1[i])
	}
}

// TestParallelRowsFloor pins the light-row fan-out floor: light per-row
// work below minRowsPerWorker rows per worker stays serial, heavy rows may
// still split fine-grained. It sets the width itself, so every runner
// checks the same table whatever its core count.
func TestParallelRowsFloor(t *testing.T) {
	const gmp = 2
	forceParallel(t, gmp)
	for _, tc := range []struct {
		rows, flops int
		want        int
	}{
		{2, 2 * heavyRowFlops, 2},                     // heavy rows: fan out even at 2 rows
		{2, parallelThreshold, 1},                     // 2 rows of half a threshold: stay serial
		{2, parallelThreshold - 1, 1},                 // below the threshold nothing fans out
		{3, 3 * (heavyRowFlops - 1), 1},               // fewer light rows than one worker's floor
		{6, 6 * (heavyRowFlops - 1), 1},               // 6 light rows: 6/4 = 1 worker
		{8 * gmp, 8 * gmp * (heavyRowFlops - 1), gmp}, // plenty of rows: full fan-out
		{1, parallelThreshold * 10, 1},                // one row cannot split
	} {
		if got := maxRowWorkers(tc.rows, tc.flops); got != tc.want {
			t.Errorf("maxRowWorkers(rows=%d, flops=%d) = %d, want %d (floor %d rows/worker, heavy row %d flops)",
				tc.rows, tc.flops, got, tc.want, minRowsPerWorker, heavyRowFlops)
		}
	}
}

// BenchmarkParallelRowsFloor backs the heavyRowFlops constant: two rows of
// half a parallel threshold each, which the floor keeps serial, measured
// against a forced 2-way fan-out of the same work. The split buys nothing
// on the 2-core reference host and allocates; the floor's serial pick wins.
func BenchmarkParallelRowsFloor(b *testing.B) {
	const rows, k, n = 2, 1024, 129 // n*k ≈ 132k flops a row: just over the threshold together, light each
	a := make([]float32, rows*k)
	bb := make([]float32, k*n)
	c := make([]float32, rows*n)
	fillDeterministic(a, 97)
	fillDeterministic(bb, 101)
	work := func(i0, i1 int) {
		gemmNaiveRange(a, bb, c, k, n, 1, 0, i0, i1)
	}
	forceParallel(b, rows)
	b.Run("floor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parallelRows(rows, rows*n*k, work)
		}
	})
	b.Run("forced-split", func(b *testing.B) {
		b.ReportAllocs()
		var wg sync.WaitGroup
		for i := 0; i < b.N; i++ {
			for w := 0; w < rows; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					work(w, w+1)
				}(w)
			}
			wg.Wait()
		}
	})
}
