package tensor

import (
	"runtime"
	"runtime/debug"
	"testing"
)

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

// TestKernelsRunInline: nothing in the package fans out. At 4 procs, the
// scalar products and the row sweeps allocate nothing and start no
// goroutine. The scalar GEMM paths are reached with the blocked dispatch
// off, as on a CPU without an FMA kernel.
func TestKernelsRunInline(t *testing.T) {
	defer SetBlockedKernelForTest(SetBlockedKernelForTest(false))
	const rows, k, n = 256, 64, 512
	a := FromSlice(make([]float32, rows*k), rows, k)
	b := FromSlice(make([]float32, k*n), k, n)
	c := FromSlice(make([]float32, rows*n), rows, n)
	at := FromSlice(make([]float32, k*rows), k, rows) // MatMulTransAInto's A
	bt := FromSlice(make([]float32, n*k), n, k)       // MatMulTransBInto's B
	bias := make([]float32, n)
	for i, d := range [][]float32{a.Data, b.Data, at.Data, bt.Data, bias} {
		fillDeterministic(d, uint32(103+4*i))
	}
	const matRows = 8 * rows
	mat := FromSlice(make([]float32, matRows*n), matRows, n)
	fillDeterministic(mat.Data, 127)
	colAcc := New(n)
	ep := Epilogue{Act: EpActReLU, ColBias: bias}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, e := range []struct {
		name string
		run  func()
	}{
		{"gemmNaive", func() { naiveGEMM(a.Data, b.Data, c.Data, rows, k, n, 1, 0) }},
		{"GEMMEpilogue", func() { GEMMEpilogue(a.Data, b.Data, c.Data, rows, k, n, ep, nil) }},
		{"MatMulTransAInto", func() { MatMulTransAInto(c, at, b, nil) }},
		{"MatMulTransBInto", func() { MatMulTransBInto(c, a, bt, nil) }},
		{"SumRowsInto", func() { mat.SumRowsInto(colAcc) }},
	} {
		goroutines := runtime.NumGoroutine()
		if allocs := mallocsPerRun(10, e.run); allocs != 0 && !raceEnabled {
			t.Errorf("%s allocates %d per call, want 0", e.name, allocs)
		}
		if extra := runtime.NumGoroutine() - goroutines; extra > 0 {
			t.Errorf("%s left %d new goroutines", e.name, extra)
		}
	}
}
