package slo

import (
	"sync"
	"testing"
	"time"
)

func testTracker(t *testing.T, target float64, now time.Time) *Tracker {
	t.Helper()
	tr, err := NewTracker(Objective{Name: "availability", Target: target}, now)
	if err != nil {
		t.Fatalf("NewTracker: %v", err)
	}
	return tr
}

func TestTrackerValidation(t *testing.T) {
	now := time.Unix(0, 0)
	if _, err := NewTracker(Objective{Name: "x", Target: 1.5}, now); err == nil {
		t.Fatal("want error for target > 1")
	}
	if _, err := NewTracker(Objective{Name: "x", Target: 0}, now); err == nil {
		t.Fatal("want error for zero target")
	}
}

func TestBurnRateMath(t *testing.T) {
	now := time.Unix(1000, 0)
	tr := testTracker(t, 0.999, now) // budget 0.001

	// 1% bad traffic against a 0.1% budget is a burn rate of 10.
	for i := 0; i < 990; i++ {
		tr.Observe(true)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(false)
	}
	snap := tr.Snapshot(now.Add(time.Second))
	for _, w := range snap.Windows {
		if w.Good != 990 || w.Bad != 10 {
			t.Fatalf("window %s: good=%d bad=%d, want 990/10", w.Window, w.Good, w.Bad)
		}
		if got, want := w.BurnRate, 10.0; got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("window %s: burn rate %v, want %v", w.Window, got, want)
		}
	}
	if snap.BudgetRemaining >= 0 {
		t.Fatalf("budget remaining %v, want negative (burn 10 over longest window)", snap.BudgetRemaining)
	}
	if snap.State != "exhausted" {
		t.Fatalf("state %q, want exhausted", snap.State)
	}
}

func TestFastBurnTripsOnlyShortWindow(t *testing.T) {
	// Burn rate 10 sits between the 5m threshold (14.4) and the 1h
	// threshold (6)... so use a burst hot enough for the fast window only
	// after the long windows have diluted it with history.
	now := time.Unix(1000, 0)
	tr := testTracker(t, 0.99, now) // budget 0.01

	// Six hours of clean traffic, checkpointed minute by minute.
	for m := 0; m < 360; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(true)
		}
		now = now.Add(time.Minute)
		tr.Advance(now)
	}
	// Then a hot burst. The 5m window holds ~500 clean events, so 200
	// straight failures put it at burn ≈ (200/700)/0.01 ≈ 29 (≥ 14.4),
	// while 1h sits at ≈3.2 (< 6) and 6h at ≈0.55 (< 1).
	for i := 0; i < 200; i++ {
		tr.Observe(false)
	}
	now = now.Add(time.Second)
	trips := tr.Advance(now)
	if len(trips) != 1 {
		t.Fatalf("got %d trips (%v), want 1 (fast window only)", len(trips), trips)
	}
	if trips[0].Window != "5m" {
		t.Fatalf("tripped window %q, want 5m", trips[0].Window)
	}
	snap := tr.Snapshot(now)
	if snap.State != "burning" {
		t.Fatalf("state %q, want burning", snap.State)
	}
	var w5, w6 *WindowSnapshot
	for i := range snap.Windows {
		switch snap.Windows[i].Window {
		case "5m":
			w5 = &snap.Windows[i]
		case "6h":
			w6 = &snap.Windows[i]
		}
	}
	if !w5.Tripped || w5.Trips != 1 {
		t.Fatalf("5m window: tripped=%v trips=%d, want true/1", w5.Tripped, w5.Trips)
	}
	if w6.Tripped {
		t.Fatalf("6h window tripped on a 100-request burst against 36000 clean")
	}
}

func TestTripIsRisingEdgeOnly(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.99, now)
	for i := 0; i < 100; i++ {
		tr.Observe(false)
	}
	now = now.Add(time.Second)
	if trips := tr.Advance(now); len(trips) != 3 {
		t.Fatalf("got %d trips, want all 3 windows tripping", len(trips))
	}
	// Still burning: no new edges.
	now = now.Add(time.Second)
	if trips := tr.Advance(now); len(trips) != 0 {
		t.Fatalf("got %d trips on sustained burn, want 0 (rising edge only)", len(trips))
	}
	// Recover: the short window's bad events age out, then a fresh burst
	// re-trips it.
	for m := 0; m < 10; m++ {
		for i := 0; i < 1000; i++ {
			tr.Observe(true)
		}
		now = now.Add(time.Minute)
		tr.Advance(now)
	}
	// The 5m window now holds ~5000 clean events; 1000 straight failures
	// put it at burn ≈ (1000/6000)/0.01 ≈ 16.7, over the 14.4 threshold.
	for i := 0; i < 1000; i++ {
		tr.Observe(false)
	}
	now = now.Add(time.Second)
	trips := tr.Advance(now)
	found := false
	for _, tp := range trips {
		if tp.Window == "5m" {
			found = true
		}
	}
	if !found {
		t.Fatalf("5m window did not re-trip after recovery; trips=%v", trips)
	}
}

func TestMinEventsGuard(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.99, now)
	// A handful of failures on an otherwise idle server must not trip.
	for i := 0; i < 5; i++ {
		tr.Observe(false)
	}
	if trips := tr.Advance(now.Add(time.Second)); len(trips) != 0 {
		t.Fatalf("tripped on %d events below MinEvents: %v", 5, trips)
	}
}

func TestWindowAgesOut(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.99, now)
	for i := 0; i < 100; i++ {
		tr.Observe(false)
	}
	now = now.Add(time.Second)
	tr.Advance(now)
	// Six clean minutes: the 5m window must no longer see the burst.
	for m := 0; m < 6; m++ {
		for i := 0; i < 100; i++ {
			tr.Observe(true)
		}
		now = now.Add(time.Minute)
		tr.Advance(now)
	}
	snap := tr.Snapshot(now)
	w5 := snap.Windows[0]
	if w5.Bad != 0 {
		t.Fatalf("5m window still holds %d bad events after 6 clean minutes", w5.Bad)
	}
	if w5.Tripped {
		t.Fatal("5m window still tripped after burst aged out")
	}
}

func TestLongIdleGapDoesNotCorruptRing(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.99, now)
	for i := 0; i < 100; i++ {
		tr.Observe(true)
	}
	// A gap far longer than the ring (6h / 5s = 4321 slots).
	now = now.Add(48 * time.Hour)
	tr.Advance(now)
	snap := tr.Snapshot(now)
	for _, w := range snap.Windows {
		if w.Good != 0 || w.Bad != 0 {
			t.Fatalf("window %s carries stale events after 48h gap: %+v", w.Window, w)
		}
	}
}

func TestMonitorDispatchAndSnapshot(t *testing.T) {
	now := time.Unix(0, 0)
	avail := testTracker(t, 0.999, now)
	lat, err := NewTracker(Objective{Name: "latency", Target: 0.99}, now)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var fired []Trip
	m := NewMonitor([]*Tracker{avail, lat}, func(tp Trip) {
		mu.Lock()
		fired = append(fired, tp)
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		avail.Observe(false)
		lat.Observe(true)
	}
	snaps := m.Snapshot(now.Add(time.Second))
	if len(snaps) != 2 || snaps[0].Objective != "availability" || snaps[1].Objective != "latency" {
		t.Fatalf("snapshots %+v, want availability then latency (registration order)", snaps)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(fired) != 3 {
		t.Fatalf("onTrip fired %d times, want 3 (availability windows)", len(fired))
	}
	for _, tp := range fired {
		if tp.Objective != "availability" {
			t.Fatalf("unexpected trip for objective %q", tp.Objective)
		}
		if tp.String() == "" {
			t.Fatal("empty trip string")
		}
	}
}

func TestMonitorStartStop(t *testing.T) {
	now := time.Now()
	tr := testTracker(t, 0.999, now)
	m := NewMonitor([]*Tracker{tr}, nil)
	m.Start(time.Millisecond)
	for i := 0; i < 1000; i++ {
		tr.Observe(i%2 == 0)
	}
	time.Sleep(20 * time.Millisecond)
	m.Stop()
	snap := tr.Snapshot(time.Now())
	total := snap.Windows[0].Good + snap.Windows[0].Bad
	if total != 1000 {
		t.Fatalf("window total %d, want 1000", total)
	}
}

func TestObserveConcurrent(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.999, now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				tr.Observe(i%10 != 0)
				if i%1000 == 0 {
					tr.Advance(now.Add(time.Duration(i) * time.Millisecond))
				}
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot(now.Add(time.Minute))
	w := snap.Windows[len(snap.Windows)-1]
	if w.Good+w.Bad != 80000 {
		t.Fatalf("total %d, want 80000", w.Good+w.Bad)
	}
	if w.Bad != 8000 {
		t.Fatalf("bad %d, want 8000", w.Bad)
	}
}

func TestObserveAllocFree(t *testing.T) {
	now := time.Unix(0, 0)
	tr := testTracker(t, 0.999, now)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Observe(true)
		tr.Observe(false)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per run, want 0", allocs)
	}
}

// BenchmarkSLOObserve is the go-test twin of the perf registry's
// engine/slo-observe row, picked up by CI's benchmark smoke.
func BenchmarkSLOObserve(b *testing.B) {
	tr, err := NewTracker(Objective{Name: "availability", Target: 0.999}, time.Unix(0, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(i&7 != 0)
	}
}
