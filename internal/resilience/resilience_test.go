package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testBreaker returns a breaker with a controllable clock.
func testBreaker(cfg BreakerConfig, onChange func(from, to State)) (*Breaker, *atomic.Int64) {
	b := NewBreaker(cfg, onChange)
	var clk atomic.Int64
	b.now = func() int64 { return clk.Load() }
	return b, &clk
}

func TestFingerprint(t *testing.T) {
	a := make([]float32, 784)
	b := make([]float32, 784)
	for i := range a {
		a[i] = float32(i) / 784
		b[i] = float32(i) / 784
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatal("identical inputs must collide")
	}
	b[300] += 1e-4
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("distinct inputs should not collide")
	}
	if Fingerprint(nil) == 0 || Fingerprint(a) == 0 {
		t.Fatal("fingerprint must never be 0 (quarantine empty sentinel)")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	var edges []string
	b, clk := testBreaker(BreakerConfig{
		Window: 10, MinSamples: 4, FailureThreshold: 0.5,
		Cooldown: time.Second, Probes: 2,
	}, func(from, to State) {
		edges = append(edges, from.String()+"->"+to.String())
	})

	// Below MinSamples nothing trips, even at 100% failure.
	b.Observe(false)
	b.Observe(false)
	b.Observe(false)
	if got := b.State(); got != Closed {
		t.Fatalf("state before MinSamples = %v, want closed", got)
	}
	// Fourth failure reaches MinSamples at 100% failure: trip.
	b.Observe(false)
	if got := b.State(); got != Open {
		t.Fatalf("state after 4/4 failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker must reject before cooldown")
	}
	// Late outcomes while open are ignored.
	b.Observe(true)
	if got := b.State(); got != Open {
		t.Fatalf("late observe moved state to %v", got)
	}

	// Cooldown elapses: first Allow is the first probe, second the last.
	clk.Store(int64(2 * time.Second))
	if !b.Allow() {
		t.Fatal("cooldown elapsed: first probe must be admitted")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state after cooldown Allow = %v, want half-open", got)
	}
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	if b.Allow() {
		t.Fatal("probe quota exhausted: third Allow must reject")
	}

	// Both probes succeed: closed, with a fresh window.
	b.Observe(true)
	b.Observe(true)
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe successes = %v, want closed", got)
	}
	if total, failed := b.Samples(); total != 0 || failed != 0 {
		t.Fatalf("window not reset on close: total=%d failed=%d", total, failed)
	}

	// Trip again, probe fails: straight back to open.
	for i := 0; i < 4; i++ {
		b.Observe(false)
	}
	clk.Store(int64(4 * time.Second))
	if !b.Allow() {
		t.Fatal("probe after second trip must be admitted")
	}
	b.Observe(false)
	if got := b.State(); got != Open {
		t.Fatalf("state after failed probe = %v, want open", got)
	}

	want := []string{
		"closed->open", "open->half-open", "half-open->closed",
		"closed->open", "open->half-open", "half-open->open",
	}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edge %d = %q, want %q (all: %v)", i, edges[i], want[i], edges)
		}
	}
	if b.Transitions() != uint64(len(want)) {
		t.Fatalf("Transitions() = %d, want %d", b.Transitions(), len(want))
	}
}

func TestBreakerWindowEviction(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{Window: 8, MinSamples: 8, FailureThreshold: 0.5}, nil)
	// 3 failures then 8 successes: the failure rate never reaches 50%
	// while they're in the window, and they then age out entirely.
	for i := 0; i < 3; i++ {
		b.Observe(false)
	}
	for i := 0; i < 8; i++ {
		b.Observe(true)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want closed after failures aged out", got)
	}
	if _, failed := b.Samples(); failed != 0 {
		t.Fatalf("windowed failures = %d, want 0", failed)
	}
}

func TestBreakerMixedRateTrips(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{Window: 10, MinSamples: 10, FailureThreshold: 0.5}, nil)
	// Alternate success/failure: exactly 50% — at threshold, must trip.
	for i := 0; i < 10; i++ {
		b.Observe(i%2 == 0)
	}
	if got := b.State(); got != Open {
		t.Fatalf("state at 50%% failure with threshold 0.5 = %v, want open", got)
	}
}

func TestBreakerHalfOpenRearm(t *testing.T) {
	b, clk := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 4, FailureThreshold: 0.5,
		Cooldown: time.Second, Probes: 2,
	}, nil)
	for i := 0; i < 4; i++ {
		b.Observe(false)
	}
	clk.Store(int64(2 * time.Second))
	if !b.Allow() || !b.Allow() {
		t.Fatal("both probes must be admitted")
	}
	if b.Allow() {
		t.Fatal("quota exhausted")
	}
	// The probes never produce outcomes (lost upstream). After another
	// cooldown the half-open state re-arms and admits fresh probes.
	clk.Store(int64(4 * time.Second))
	if b.Allow() {
		// First call past the deadline re-arms but rejects; next admits.
		t.Fatal("re-arming call itself should reject")
	}
	if !b.Allow() {
		t.Fatal("re-armed half-open must admit fresh probes")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
}

// TestBreakerConcurrent hammers every entry point from many goroutines;
// run under -race this is the concurrency contract for trip, half-open
// probe admission, and concurrent Observe.
func TestBreakerConcurrent(t *testing.T) {
	var transitions atomic.Int64
	b, clk := testBreaker(BreakerConfig{
		Window: 16, MinSamples: 8, FailureThreshold: 0.5,
		Cooldown: time.Millisecond, Probes: 3,
	}, func(from, to State) { transitions.Add(1) })

	const goroutines = 8
	var hammers, advancer sync.WaitGroup
	stop := make(chan struct{})
	// Clock advancer: keeps cooldowns elapsing so the breaker cycles
	// through all three states while the hammers run.
	advancer.Add(1)
	go func() {
		defer advancer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clk.Add(int64(time.Millisecond))
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		hammers.Add(1)
		go func(g int) {
			defer hammers.Done()
			for i := 0; i < 5000; i++ {
				if b.Allow() {
					// 50% failures sits at the trip threshold, so trips
					// and probe-driven recoveries both happen.
					b.Observe((i+g)%2 == 0)
				}
				_ = b.State()
				_, _ = b.Samples()
			}
		}(g)
	}
	hammers.Wait()
	close(stop)
	advancer.Wait()
	if transitions.Load() != int64(b.Transitions()) {
		t.Fatalf("callback fired %d times for %d transitions",
			transitions.Load(), b.Transitions())
	}
	// The breaker must have moved at least once under this storm, and the
	// final state must be a legal one.
	if b.Transitions() == 0 {
		t.Fatal("breaker never transitioned under concurrent fault load")
	}
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("illegal final state %d", s)
	}
}

func TestQuarantine(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Capacity: 4})
	if q.Check(42) {
		t.Fatal("empty quarantine matched")
	}
	q.Add(42)
	if !q.Check(42) {
		t.Fatal("added fingerprint not found")
	}
	q.Add(42) // dedup
	if q.Adds() != 1 {
		t.Fatalf("Adds() = %d after duplicate add, want 1", q.Adds())
	}
	if q.Size() != 1 {
		t.Fatalf("Size() = %d, want 1", q.Size())
	}
	// Fill past capacity: oldest is evicted, newest retained.
	for fp := uint64(100); fp < 104; fp++ {
		q.Add(fp)
	}
	if q.Check(42) {
		t.Fatal("oldest entry should have been evicted")
	}
	if !q.Check(103) {
		t.Fatal("newest entry must be retained")
	}
	if q.Size() != 4 {
		t.Fatalf("Size() = %d, want capacity 4", q.Size())
	}
	if q.Hits() == 0 {
		t.Fatal("hits counter never moved")
	}
}

func TestQuarantineConcurrent(t *testing.T) {
	q := NewQuarantine(QuarantineConfig{Capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				fp := uint64(g*7+i%5) + 1
				q.Add(fp)
				q.Check(fp)
			}
		}(g)
	}
	wg.Wait()
	if q.Size() == 0 {
		t.Fatal("quarantine empty after concurrent adds")
	}
}

// TestHotPathZeroAlloc pins every admission/observe-path primitive at
// 0 allocs/op, matching the slo.Observe contract.
func TestHotPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under the race detector")
	}
	px := make([]float32, 784)
	for i := range px {
		px[i] = float32(i) / 784
	}
	b, _ := testBreaker(BreakerConfig{}, nil)
	q := NewQuarantine(QuarantineConfig{})
	q.Add(12345)
	checks := []struct {
		name string
		fn   func()
	}{
		{"Fingerprint", func() { _ = Fingerprint(px) }},
		{"Breaker.Observe", func() { b.Observe(true) }},
		{"Breaker.Allow", func() { _ = b.Allow() }},
		{"Quarantine.Check", func() { _ = q.Check(Fingerprint(px)) }},
	}
	for _, c := range checks {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s allocates %v per op, want 0", c.name, n)
		}
	}
}

// BenchmarkFingerprint hashes one 784-pixel image, the admission path's
// quarantine key.
func BenchmarkFingerprint(b *testing.B) {
	px := make([]float32, 784)
	for i := range px {
		px[i] = float32(i) / 784
	}
	var sink uint64
	for b.Loop() {
		sink += Fingerprint(px)
	}
	if sink == 0 {
		b.Log(sink)
	}
}

// BenchmarkBreakerObserve measures the resilience tax added to every
// healthy micro-batch: one circuit-breaker admission check plus one outcome
// observation — a handful of atomics that must stay at zero allocations
// (pinned by the AllocsPerRun test above; this benchmark guards the latency).
func BenchmarkBreakerObserve(b *testing.B) {
	br := NewBreaker(BreakerConfig{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if br.Allow() {
			br.Observe(true)
		}
	}
}
