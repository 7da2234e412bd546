package chaos

import (
	"errors"
	"testing"
	"time"

	"cbnet/internal/tensor"
)

func TestInjectorFaultSchedules(t *testing.T) {
	inj := NewInjector()
	// Disabled injector passes everything through.
	for i := 0; i < 5; i++ {
		if err := inj.BeforeInfer("hard", tensor.New(4, 4)); err != nil {
			t.Fatalf("idle injector returned %v", err)
		}
	}
	inj.SetErrorEvery(3)
	errs := 0
	for i := 0; i < 9; i++ {
		if err := inj.BeforeInfer("hard", tensor.New(1, 4)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("err = %v, want ErrInjected", err)
			}
			errs++
		}
	}
	if errs != 3 {
		t.Fatalf("every-3rd error: got %d in 9 batches, want 3", errs)
	}

	inj.SetErrorEvery(0)
	inj.SetPanicEvery(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic-every-1 did not panic")
			}
		}()
		_ = inj.BeforeInfer("easy", tensor.New(2, 4))
	}()
}

func TestInjectorPerRouteLatency(t *testing.T) {
	inj := NewInjector()
	inj.SetLatency("", 2*time.Millisecond)      // default
	inj.SetLatency("hard", 20*time.Millisecond) // specific
	start := time.Now()
	_ = inj.BeforeInfer("hard", tensor.New(1, 4))
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("hard batch took %v, want >= 20ms", d)
	}
	start = time.Now()
	_ = inj.BeforeInfer("easy", tensor.New(1, 4))
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("default-latency batch took %v, want >= 2ms", d)
	}
}

func TestWaveProfile(t *testing.T) {
	w := Wave{Base: 10, Peak: 100, Ramp: 100 * time.Millisecond, Hold: 200 * time.Millisecond, Decay: 100 * time.Millisecond}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10},
		{50 * time.Millisecond, 55}, // halfway up the ramp
		{100 * time.Millisecond, 100},
		{250 * time.Millisecond, 100}, // holding
		{350 * time.Millisecond, 55},  // halfway down
		{time.Second, 10},             // back to base
	}
	for _, c := range cases {
		if got := w.RateAt(c.at); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestWaveArrivalsIntegrateTheProfile(t *testing.T) {
	w := Wave{Base: 50, Peak: 500, Ramp: 100 * time.Millisecond, Hold: 200 * time.Millisecond, Decay: 100 * time.Millisecond}
	arr := w.Arrivals(time.Second)
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	// Monotone non-decreasing and inside the experiment window.
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] || arr[i] >= time.Second {
			t.Fatalf("arrival %d = %v out of order or range", i, arr[i])
		}
	}
	// The hold window must be denser than the baseline tail.
	inWindow := func(lo, hi time.Duration) int {
		n := 0
		for _, a := range arr {
			if a >= lo && a < hi {
				n++
			}
		}
		return n
	}
	crowd := inWindow(100*time.Millisecond, 300*time.Millisecond) // ~500/s for 200ms ≈ 100
	quiet := inWindow(600*time.Millisecond, 800*time.Millisecond) // ~50/s for 200ms ≈ 10
	if crowd < 5*quiet {
		t.Fatalf("flash crowd not visible in schedule: %d arrivals in crowd vs %d in quiet", crowd, quiet)
	}
	// Determinism: same wave, same schedule.
	arr2 := w.Arrivals(time.Second)
	if len(arr2) != len(arr) {
		t.Fatalf("non-deterministic arrivals: %d vs %d", len(arr), len(arr2))
	}
	for i := range arr {
		if arr[i] != arr2[i] {
			t.Fatalf("non-deterministic arrival %d", i)
		}
	}
}

func TestParseLatency(t *testing.T) {
	inj := NewInjector()
	if err := inj.setLatencies("hard:12ms/easy:4ms/all:1ms"); err != nil {
		t.Fatal(err)
	}
	if inj.lat["hard"] != 12*time.Millisecond || inj.lat["easy"] != 4*time.Millisecond {
		t.Fatalf("per-route latencies %v", inj.lat)
	}
	if inj.defaultLat != time.Millisecond {
		t.Fatalf("'all' should set the default latency, got %v", inj.defaultLat)
	}
	for _, bad := range []string{"", "hard", ":5ms", "hard:banana", "hard:-1ms", "hard:1ms/"} {
		if err := NewInjector().setLatencies(bad); err == nil {
			t.Errorf("latency %q should be rejected", bad)
		}
	}
}

// TestParseSpec: every fault a drill can name on the command line reaches
// the injector, and a spec that names anything else is refused whole.
func TestParseSpec(t *testing.T) {
	inj, err := ParseSpec("latency=all:1ms, poison=0.77777,stuck=hard,error-every=3")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := inj.BeforeInfer("hard", tensor.New(1, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("stuck=hard: hard batch err = %v, want ErrInjected", err)
	}
	if d := time.Since(start); d < time.Millisecond {
		t.Fatalf("latency=all:1ms: batch took %v", d)
	}
	_ = inj.BeforeInfer("easy", tensor.New(1, 4)) // batch 2
	if err := inj.BeforeInfer("easy", tensor.New(1, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("error-every=3: third batch err = %v, want ErrInjected", err)
	}
	x := tensor.New(2, 4)
	x.Data[4] = 0.77777
	func() {
		defer func() {
			if recover() == nil {
				t.Error("poison=0.77777: a batch holding the pixel did not panic")
			}
		}()
		_ = inj.BeforeInfer("easy", x) // batch 4 is no error tick, so the poison check runs
	}()

	if inj, err = ParseSpec("stuck=all,panic-every=1"); err != nil {
		t.Fatal(err)
	}
	if err := inj.BeforeInfer("pruned", tensor.New(1, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("stuck=all: err = %v, want ErrInjected on any route", err)
	}
	for _, bad := range []string{
		"", "latency", "latency=hard", "poison=x", "poison=0", "stuck=", "stuck",
		"error-every=0", "panic-every=-1", "error-every=soon", "jitter=1ms",
		"stuck=hard,", "stuck=hard,jitter=1",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q should be rejected", bad)
		}
	}
}
