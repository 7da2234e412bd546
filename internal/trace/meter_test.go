package trace

import (
	"math"
	"sync"
	"testing"
)

// TestMeterCounterWraparound: the cumulative counters are plain wrapping
// int64 adds — after ~292 years of nanoseconds they go negative rather
// than saturate. The derived rates must degrade to 0 instead of returning
// garbage (negative or infinite GFLOPS) when that happens.
func TestMeterCounterWraparound(t *testing.T) {
	m := NewMeter()
	s := m.Step("", "p", "s", 0, 1000, 10, 0)
	s.Observe(math.MaxInt64, 1)
	s.Observe(100, 1) // wraps: MaxInt64 + 100 overflows negative

	snap := m.Snapshot()[0]
	if snap.Nanos >= 0 {
		t.Fatalf("Nanos = %d, expected wrapped-negative total", snap.Nanos)
	}
	if g := snap.GFLOPS(); g != 0 {
		t.Errorf("GFLOPS() = %v on wrapped counter, want 0", g)
	}
	neg := StepSnapshot{FLOPs: 100, Bytes: -5}
	if in := neg.Intensity(); in != 0 {
		t.Errorf("Intensity() = %v on negative bytes, want 0", in)
	}
}

// TestMeterSnapshotUnderConcurrentEmit hammers one meter from writer
// goroutines — both hot-path Observe calls and cold-path ScopedStep
// registrations — while the main goroutine snapshots continuously. Run
// under -race this checks the lock/atomic split; the assertions check
// snapshots are consistent (monotonic totals, FLOPs always derived from
// the same Images read) and that nothing emitted is lost.
func TestMeterSnapshotUnderConcurrentEmit(t *testing.T) {
	const (
		writers = 4
		perG    = 5000
		flopsPI = 7
	)
	m := NewMeter()
	shared := m.Step("easy", "plan", "shared", 0, flopsPI, 3, 2)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Each writer also registers its own series mid-flight, so
			// snapshots race with index growth, not just counter adds.
			own := m.Step("hard", "plan", string(rune('a'+g)), g+1, 1, 1, 0)
			for i := 0; i < perG; i++ {
				shared.Observe(10, 2)
				own.Observe(1, 1)
			}
		}(g)
	}
	close(start)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prevImages int64
	for snapshotting := true; snapshotting; {
		select {
		case <-done:
			snapshotting = false
		default:
		}
		for _, s := range m.Snapshot() {
			if s.Step != "shared" {
				continue
			}
			if s.Images < prevImages {
				t.Fatalf("images went backwards: %d after %d", s.Images, prevImages)
			}
			prevImages = s.Images
			if s.FLOPs != s.Images*flopsPI {
				t.Fatalf("torn snapshot: FLOPs %d != Images %d × %d", s.FLOPs, s.Images, flopsPI)
			}
		}
	}

	final := m.Snapshot()
	if len(final) != writers+1 {
		t.Fatalf("got %d series, want %d", len(final), writers+1)
	}
	for _, s := range final {
		if s.Step == "shared" {
			wantImgs := int64(writers * perG * 2)
			if s.Images != wantImgs || s.Execs != int64(writers*perG) {
				t.Errorf("shared series lost updates: images %d (want %d), execs %d", s.Images, wantImgs, s.Execs)
			}
		} else if s.Execs != perG {
			t.Errorf("series %s lost updates: execs %d, want %d", s.Step, s.Execs, perG)
		}
	}
}

// TestScopedStepSeparatesScopes: identical (plan, step) under different
// scopes must be distinct series — the property that keeps the easy and
// hard routes' energy attribution apart.
func TestScopedStepSeparatesScopes(t *testing.T) {
	m := NewMeter()
	a := m.Step("easy", "p", "s", 0, 1, 1, 0)
	b := m.Step("hard", "p", "s", 0, 1, 1, 0)
	if a == b {
		t.Fatal("scopes share a series")
	}
	if again := m.Step("easy", "p", "s", 0, 1, 1, 0); again != a {
		t.Fatal("re-registration did not return the existing handle")
	}
	a.Observe(5, 1)
	snap := m.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d series, want 2", len(snap))
	}
	// Same plan and index: scope breaks the tie, easy < hard.
	if snap[0].Scope != "easy" || snap[1].Scope != "hard" {
		t.Errorf("snapshot order %q,%q; want easy,hard", snap[0].Scope, snap[1].Scope)
	}
	if snap[0].Execs != 1 || snap[1].Execs != 0 {
		t.Errorf("observation leaked across scopes: %+v", snap)
	}
}
