package tensor

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// ParallelFor is the package's one fan-out and SetGEMMThreads the one owner
// of its width: these tests pin the width's contract, the light-row floor
// under it, and that no kernel or row sweep fans out beneath it.

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
// machine's proc count, decides how far ParallelFor splits — and nothing else
// in the package fans out at any width. At width 4 on a single proc,
// ParallelFor still cuts a range far above parallelThreshold into four
// chunks, while the scalar products and the row sweeps, on shapes just as far
// above it, allocate nothing and start no goroutine. The scalar GEMM paths
// are reached with the blocked dispatch off, as on a CPU without an FMA
// kernel.
func TestFanOutWidthIsGEMMThreads(t *testing.T) {
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(false))
	const rows, k, n = 256, 64, 512 // light rows; product and epilogue sweep both far above the threshold
	a := FromSlice(make([]float32, rows*k), rows, k)
	b := FromSlice(make([]float32, k*n), k, n)
	c := FromSlice(make([]float32, rows*n), rows, n)
	at := FromSlice(make([]float32, k*rows), k, rows) // MatMulTransAInto's A
	bt := FromSlice(make([]float32, n*k), n, k)       // MatMulTransBInto's B
	bias := make([]float32, n)
	for i, d := range [][]float32{a.Data, b.Data, at.Data, bt.Data, bias} {
		fillDeterministic(d, uint32(103+4*i))
	}
	const matRows = 8 * rows // the row sweeps do a flop an element: a matrix far above the threshold by itself
	mat := FromSlice(make([]float32, matRows*n), matRows, n)
	fillDeterministic(mat.Data, 127)
	rowVec, colAcc := FromSlice(bias, n), New(n)
	ep := Epilogue{Act: EpActReLU, ColBias: bias}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	forceParallel(t, 4)

	var calls, covered atomic.Int64
	ParallelFor(rows, n*k, func(i0, i1 int) {
		calls.Add(1)
		covered.Add(int64(i1 - i0))
	})
	if calls.Load() != 4 || covered.Load() != rows {
		t.Errorf("width 4, GOMAXPROCS 1: ParallelFor made %d calls covering %d of %d items, want 4 covering all",
			calls.Load(), covered.Load(), rows)
	}

	for _, e := range []struct {
		name string
		run  func()
	}{
		{"gemmNaive", func() { gemmNaive(a.Data, b.Data, c.Data, rows, k, n, 1, 0) }},
		{"GEMMEpilogue", func() { GEMMEpilogue(a.Data, b.Data, c.Data, rows, k, n, ep, nil) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(c, at, b, nil) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(c, a, bt, nil) }},
		{"AddRowVector", func() { mat.AddRowVector(rowVec) }},
		{"SumRowsInto", func() { mat.SumRowsInto(colAcc) }},
	} {
		goroutines := runtime.NumGoroutine()
		if allocs := mallocsPerRun(10, e.run); allocs != 0 && !raceEnabled {
			t.Errorf("width 4: %s allocates %d per call, want 0 (it fanned out)", e.name, allocs)
		}
		if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
			t.Errorf("width 4: %s left %d new goroutines", e.name, extra)
		}
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
		gemmNaive(a[i0*k:i1*k], bb, c[i0*n:i1*n], i1-i0, k, n, 1, 0)
	}
	forceParallel(b, rows)
	b.Run("floor", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ParallelFor(rows, n*k, work)
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
