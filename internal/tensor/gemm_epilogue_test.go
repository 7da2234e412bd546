package tensor

import (
	"math"
	"testing"
)

// refEpilogue applies ep to a row-major m×n matrix the straightforward way,
// as the oracle for the fused paths.
func refEpilogue(c []float32, m, n int, ep Epilogue) {
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		for j := range row {
			v := row[j]
			if ep.RowBias != nil {
				v += ep.RowBias[i]
			}
			if ep.ColBias != nil {
				v += ep.ColBias[j]
			}
			switch ep.Act {
			case EpActReLU:
				if v < 0 {
					v = 0
				}
			case EpActSigmoid:
				v = float32(1 / (1 + math.Exp(-float64(v))))
			}
			row[j] = v
		}
	}
}

func epilogueVariants(m, n int) []Epilogue {
	rb := make([]float32, m)
	cb := make([]float32, n)
	fillDeterministic(rb, 71)
	fillDeterministic(cb, 73)
	return []Epilogue{
		{},
		{Act: EpActReLU},
		{ColBias: cb},
		{RowBias: rb},
		{ColBias: cb, Act: EpActReLU},
		{RowBias: rb, Act: EpActReLU},
		{ColBias: cb, Act: EpActSigmoid},
		{RowBias: rb, ColBias: cb, Act: EpActReLU},
	}
}

// TestGEMMEpilogueOracle pins every dispatch path (gemv, axpy, blocked) and
// every bias/activation combination against the naive product plus the
// reference sweep.
func TestGEMMEpilogueOracle(t *testing.T) {
	var ps PackScratch // exercise the caller-owned panel path
	for _, forced := range []bool{false, true} {
		prev := SetBlockedKernelForTest(forced)
		for _, s := range []struct{ m, k, n int }{
			{1, 33, 17},   // gemv row path
			{5, 9, 11},    // axpy fallback
			{48, 75, 320}, // blocked (when enabled)
			{67, 300, 9},  // blocked with ragged tiles
		} {
			a := make([]float32, s.m*s.k)
			b := make([]float32, s.k*s.n)
			fillDeterministic(a, uint32(s.m+1))
			fillDeterministic(b, uint32(s.n+2))
			for vi, ep := range epilogueVariants(s.m, s.n) {
				want := make([]float32, s.m*s.n)
				gemmNaive(a, b, want, s.m, s.k, s.n, 1, 0)
				refEpilogue(want, s.m, s.n, ep)
				got := make([]float32, s.m*s.n)
				GEMMEpilogue(a, b, got, s.m, s.k, s.n, ep, &ps)
				if d := maxAbsDiff(got, want); d > oracleTol {
					t.Errorf("blocked=%v %dx%dx%d variant %d: max abs diff %g", forced, s.m, s.k, s.n, vi, d)
				}
			}
		}
		SetBlockedKernelForTest(prev)
	}
}

// TestGEMMEpilogueBitwiseVsUnfused asserts the strong invariant the plan
// compiler relies on: fusing the epilogue changes no rounding. The fused
// call must match GEMM-then-sweep on the same dispatch path bit for bit.
func TestGEMMEpilogueBitwiseVsUnfused(t *testing.T) {
	for _, s := range []struct{ m, k, n int }{
		{1, 84, 10}, {16, 784, 512}, {48, 75, 1568}, {3, 27, 144},
	} {
		a := make([]float32, s.m*s.k)
		b := make([]float32, s.k*s.n)
		fillDeterministic(a, uint32(s.k+5))
		fillDeterministic(b, uint32(s.k+9))
		for vi, ep := range epilogueVariants(s.m, s.n) {
			want := make([]float32, s.m*s.n)
			GEMM(a, b, want, s.m, s.k, s.n, 1, 0)
			refEpilogue(want, s.m, s.n, ep)
			got := make([]float32, s.m*s.n)
			GEMMEpilogue(a, b, got, s.m, s.k, s.n, ep, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%dx%dx%d variant %d: fused[%d]=%v, unfused=%v (not bitwise equal)",
						s.m, s.k, s.n, vi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMatMulTransScratchVariants checks the Into/Acc trans products — with
// and without a caller-owned PackScratch, on both dispatch paths — against
// the allocating originals.
func TestMatMulTransScratchVariants(t *testing.T) {
	var ps PackScratch
	for _, forced := range []bool{false, true} {
		prev := SetBlockedKernelForTest(forced)
		for _, s := range []struct{ m, k, n int }{{5, 7, 9}, {64, 96, 80}, {33, 120, 65}} {
			aT := New(s.k, s.m) // TransA operand: k×m
			bT := New(s.k, s.n)
			fillDeterministic(aT.Data, uint32(s.m+11))
			fillDeterministic(bT.Data, uint32(s.n+13))
			want := MatMulTransA(aT, bT)

			got := New(s.m, s.n)
			MatMulTransAInto(got, aT, bT, &ps)
			if d := maxAbsDiff(got.Data, want.Data); d > oracleTol {
				t.Errorf("blocked=%v TransAInto %v: max abs diff %g", forced, s, d)
			}
			acc := New(s.m, s.n)
			fillDeterministic(acc.Data, uint32(s.m+17))
			wantAcc := acc.Clone()
			wantAcc.AddInPlace(want)
			MatMulTransAAcc(acc, aT, bT, &ps)
			if d := maxAbsDiff(acc.Data, wantAcc.Data); d > oracleTol {
				t.Errorf("blocked=%v TransAAcc %v: max abs diff %g", forced, s, d)
			}

			a := New(s.m, s.k)
			bB := New(s.n, s.k) // TransB operand: n×k
			fillDeterministic(a.Data, uint32(s.m+19))
			fillDeterministic(bB.Data, uint32(s.n+23))
			wantB := MatMulTransB(a, bB)
			gotB := New(s.m, s.n)
			MatMulTransBInto(gotB, a, bB, nil)
			if d := maxAbsDiff(gotB.Data, wantB.Data); d > oracleTol {
				t.Errorf("blocked=%v TransBInto %v: max abs diff %g", forced, s, d)
			}
			accB := New(s.m, s.n)
			fillDeterministic(accB.Data, uint32(s.n+29))
			wantBAcc := accB.Clone()
			wantBAcc.AddInPlace(wantB)
			MatMulTransBAcc(accB, a, bB, &ps)
			if d := maxAbsDiff(accB.Data, wantBAcc.Data); d > oracleTol {
				t.Errorf("blocked=%v TransBAcc %v: max abs diff %g", forced, s, d)
			}
		}
		SetBlockedKernelForTest(prev)
	}
}

func TestSumRowsInto(t *testing.T) {
	m := New(37, 53)
	fillDeterministic(m.Data, 31)
	acc := New(53)
	fillDeterministic(acc.Data, 37)
	want := acc.Clone()
	want.AddInPlace(m.SumRows())
	m.SumRowsInto(acc)
	if d := maxAbsDiff(acc.Data, want.Data); d > oracleTol {
		t.Fatalf("SumRowsInto: max abs diff %g", d)
	}
}

// TestTransAccZeroAlloc pins the training hot path: gradient accumulation
// through a warm PackScratch into preallocated outputs must not allocate
// (AllocsPerRun runs at GOMAXPROCS=1, the serial kernel regime).
func TestTransAccZeroAlloc(t *testing.T) {
	if !blockedEnabled {
		t.Skip("no FMA micro-kernel; the axpy fallback packs nothing")
	}
	var ps PackScratch
	aT := New(120, 64)
	b := New(120, 80)
	c := New(64, 80)
	fillDeterministic(aT.Data, 3)
	fillDeterministic(b.Data, 5)
	MatMulTransAAcc(c, aT, b, &ps) // warm the panels
	allocs := testing.AllocsPerRun(20, func() {
		MatMulTransAAcc(c, aT, b, &ps)
	})
	if allocs != 0 {
		t.Errorf("MatMulTransAAcc with warm PackScratch: %v allocs per call, want 0", allocs)
	}
}

// TestReLUBitsMatchFloatCompare holds the epilogue's bit-pattern relu to
// the float compare-and-assign it stands for, on every special value and a
// sweep of patterns across the whole float32 range.
func TestReLUBitsMatchFloatCompare(t *testing.T) {
	patterns := []uint32{0, 0x80000000, 1, 0x80000001, 0x7F7FFFFF, 0xFF7FFFFF, 0x7F800000, 0xFF800000,
		0x7F800001, 0xFF800001, 0x7FC00000, 0xFFC00000, 0xFFFFFFFF, 0x3F800000, 0xBF800000}
	for b := uint32(0); b < 0xFFFF0000; b += 0xFFF1 {
		patterns = append(patterns, b)
	}
	row := make([]float32, len(patterns))
	for i, b := range patterns {
		row[i] = math.Float32frombits(b)
	}
	epilogueTile(row, len(row), 0, 0, 1, len(row), &Epilogue{Act: EpActReLU})
	for i, b := range patterns {
		want := math.Float32frombits(b)
		if want < 0 {
			want = 0
		}
		if math.Float32bits(row[i]) != math.Float32bits(want) {
			t.Fatalf("relu(%#08x) = %#08x, float compare gives %#08x", b, math.Float32bits(row[i]), math.Float32bits(want))
		}
	}
}
