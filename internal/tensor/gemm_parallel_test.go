package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// The parallel blocked path must produce the same bits as the serial one
// (the task grid only re-orders independent tile write-backs, never the
// depth accumulation), stay allocation-free warm, and tolerate many GEMMs
// sharing the worker pool concurrently.

// forceParallel pins the intra-GEMM fan-out for a test and restores it.
func forceParallel(t testing.TB, threads int) {
	t.Helper()
	prev := SetGEMMThreads(threads)
	t.Cleanup(func() { SetGEMMThreads(prev) })
}

// TestParallelBlockedMatchesSerial compares the parallel sweep bit-for-bit
// against the serial sweep under the same kernel: shapes spanning multiple
// MC row blocks, multiple KC depth blocks (the per-panel barrier), ragged
// edges, and an epilogue.
func TestParallelBlockedMatchesSerial(t *testing.T) {
	bias := make([]float32, 4*maxNR+5)
	fillDeterministic(bias, 61)
	for _, s := range []struct {
		m, k, n int
		ep      Epilogue
	}{
		{blockMC + 9, 40, 512, Epilogue{}},                                               // 2 row blocks
		{64, 2*blockKC + 3, 300, Epilogue{}},                                             // 3 depth blocks: barrier ordering
		{3*blockMC - 1, blockKC + 1, 4*maxNR + 5, Epilogue{}},                            // both, ragged everywhere
		{blockMC + 1, blockKC + 1, 4*maxNR + 5, Epilogue{Act: EpActReLU, ColBias: bias}}, // epilogue on final depth block
	} {
		name := fmt.Sprintf("%dx%dx%d-ep=%v", s.m, s.k, s.n, s.ep.Act)
		t.Run(name, func(t *testing.T) {
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.k*s.n)
			cInit := make([]float32, s.m*s.n)
			fillDeterministic(a, 71)
			fillDeterministic(b, 73)
			fillDeterministic(cInit, 79)

			forceParallel(t, 1)
			want := append([]float32(nil), cInit...)
			gemmBlocked(a, s.k, 1, b, s.n, 1, want, s.m, s.k, s.n, 1, 1, s.ep, nil, nil)

			for _, threads := range []int{2, 4, 8} {
				SetGEMMThreads(threads)
				got := append([]float32(nil), cInit...)
				gemmBlocked(a, s.k, 1, b, s.n, 1, got, s.m, s.k, s.n, 1, 1, s.ep, nil, nil)
				if d := maxAbsDiff(got, want); d != 0 {
					t.Fatalf("threads=%d: parallel result differs from serial by %g (want bitwise equal)", threads, d)
				}
			}
		})
	}
}

// TestParallelBlockedConcurrentGEMMs runs many goroutines each doing
// intra-parallel blocked GEMMs against a shared worker pool — the serving
// shape (engine workers × gemm-threads) — and checks every result. Run
// with -race this is the pool's data-race oracle.
func TestParallelBlockedConcurrentGEMMs(t *testing.T) {
	forceParallel(t, 4)
	const m, k, n = 96, 300, 256
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fillDeterministic(a, 83)
	fillDeterministic(b, 89)
	want := make([]float32, m*n)
	gemmNaive(a, b, want, m, k, n, 1, 0)

	callers := 4
	iters := 8
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ps PackScratch
			c := make([]float32, m*n)
			for it := 0; it < iters; it++ {
				gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, 1, 0, Epilogue{}, &ps, nil)
				if d := maxAbsDiff(c, want); d > oracleTol {
					errs <- fmt.Errorf("caller %d iter %d: max abs diff %g", g, it, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
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
	// Oversubscription is allowed (tests on small hosts exercise the pool).
	SetGEMMThreads(runtime.GOMAXPROCS(0) + 7)
	if got := GEMMThreads(); got != runtime.GOMAXPROCS(0)+7 {
		t.Fatalf("GEMMThreads()=%d, oversubscription should be honored", got)
	}
}

// TestParallelBlockedZeroAllocs proves the parallel warm path allocates
// nothing: pool-owned packing buffers, recycled job descriptors, reused
// barrier channel.
func TestParallelBlockedZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	forceParallel(t, 4)
	const m, k, n = 256, 256, 256
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	fillDeterministic(a, 91)
	fillDeterministic(b, 93)
	var ps PackScratch
	run := func() {
		gemmBlocked(a, k, 1, b, n, 1, c, m, k, n, 1, 0, Epilogue{}, &ps, nil)
	}
	run() // warm: start pool workers, grow panels
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("parallel blocked GEMM allocates %v/op warm, want 0", allocs)
	}
}

// TestParallelRowsFloor pins the light-row fan-out floor: light per-row
// work below minRowsPerWorker rows per worker stays serial, heavy rows may
// still split fine-grained. It runs at two procs whatever the host has, so
// a one-core runner checks the same table.
func TestParallelRowsFloor(t *testing.T) {
	gmp := max(runtime.GOMAXPROCS(0), 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(gmp))
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

// BenchmarkGEMMBlockedThreads is the scaling curve: one 256³ GEMM at
// 1/2/4/8 intra-GEMM threads. On a single-core host the extra threads
// time-slice; on multicore the curve is the tentpole's acceptance
// measurement.
func BenchmarkGEMMBlockedThreads(b *testing.B) {
	if !blockedEnabled {
		b.Skip("no FMA micro-kernel on this CPU")
	}
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("t%d", threads), func(b *testing.B) {
			prev := SetGEMMThreads(threads)
			defer SetGEMMThreads(prev)
			benchGEMM(b, 256, 256, 256, func(a, bb, c []float32) {
				gemmBlocked(a, 256, 1, bb, 256, 1, c, 256, 256, 256, 1, 0, Epilogue{}, nil, nil)
			})
		})
	}
}
