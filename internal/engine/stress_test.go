package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/dataset"
)

// TestStressConcurrentSubmitters hammers the engine from many goroutines
// with mixed traffic while a poller reads stats, validating -race
// cleanliness and that no request is lost or double-answered.
func TestStressConcurrentSubmitters(t *testing.T) {
	e := testEngine(t, Config{MaxBatch: 8, Workers: 4, QueueDepth: 1024})
	const goroutines = 16
	const perG = 20
	images := make([][]float32, goroutines)
	for i := range images {
		if i%2 == 0 {
			images[i] = easyImage(uint64(i))
		} else {
			images[i] = hardImage(uint64(i))
		}
	}

	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var completed, canceled atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx := context.Background()
				if g == 0 && i%5 == 4 {
					// A few submitters give up before calling: these are
					// refused at admission and never enqueue.
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				}
				res, err := e.Submit(ctx, Request{
					Pixels:           images[g],
					IncludeConverted: g%4 == 3,
				})
				switch {
				case err == nil:
					if res.Class < 0 || res.Class >= dataset.NumClasses {
						t.Errorf("class %d out of range", res.Class)
					}
					completed.Add(1)
				case errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollWG.Wait()

	if got := completed.Load() + canceled.Load(); got != goroutines*perG {
		t.Fatalf("accounted %d submissions, want %d", got, goroutines*perG)
	}
	// Pre-canceled submissions are refused at admission, so the books must
	// balance exactly: everything admitted was answered.
	e.Close()
	s := e.Stats()
	if s.Submitted != completed.Load() {
		t.Fatalf("stats submitted %d, want %d (canceled callers must not be admitted)", s.Submitted, completed.Load())
	}
	if s.Completed != s.Submitted {
		t.Fatalf("stats completed %d, want %d (drain must answer every admitted request)", s.Completed, s.Submitted)
	}
}

// gateFault is a FaultInjector that parks every forward pass until its
// channel is closed.
type gateFault chan struct{}

func (g gateFault) BeforeInfer(string, int) error {
	<-g
	return nil
}

// gateEngine wires a test engine whose hard route blocks on a gate, so
// tests can saturate queues deterministically.
func gateEngine(t *testing.T, cfg Config) (*Engine, chan struct{}) {
	t.Helper()
	gate := make(gateFault)
	cfg.DisableRouting = true
	cfg.Fault = gate
	e := New(testPipeline(), cfg)
	t.Cleanup(e.Close)
	return e, gate
}

func TestBackpressureOverload(t *testing.T) {
	// With the worker wedged, capacity is finite (queue + batcher + batch
	// channel + worker), so a submit loop must eventually observe
	// ErrOverloaded — and every admitted request must still succeed once
	// the gate opens.
	e, gate := gateEngine(t, Config{MaxBatch: 1, Workers: 1, QueueDepth: 2})

	var wg sync.WaitGroup
	var succeeded atomic.Int64
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry on overload: the flood below keeps the queue full, so
			// patience means polling for a free slot.
			for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
				_, err := e.Submit(context.Background(), Request{Pixels: hardImage(1)})
				if errors.Is(err, ErrOverloaded) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("admitted request failed: %v", err)
					return
				}
				succeeded.Add(1)
				return
			}
			t.Error("patient submitter never admitted")
		}()
	}

	deadline := time.Now().Add(10 * time.Second)
	overloaded := false
	admitted := 0
	for time.Now().Before(deadline) {
		// Flood with short-deadline requests: they pass admission (their
		// contexts are still live), stack up behind the wedged worker, and
		// abandon after a millisecond — leaving the queue full. The stale
		// entries are shed at batch formation once the gate opens.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := e.Submit(ctx, Request{Pixels: hardImage(1)})
		cancel()
		switch {
		case errors.Is(err, ErrOverloaded):
			overloaded = true
		case err == nil, errors.Is(err, context.DeadlineExceeded), errors.Is(err, ErrDeadline):
			// Admitted (and abandoned, shed, or even served) — all fine;
			// the point is that it occupied a queue slot.
			admitted++
		default:
			t.Fatalf("unexpected submit outcome: %v", err)
		}
		if overloaded {
			break
		}
		// Also keep a few patient submitters waiting on real results.
		if admitted <= 3 {
			launch()
		}
		time.Sleep(time.Millisecond)
	}
	if !overloaded {
		t.Fatal("never observed ErrOverloaded with a wedged worker and full queue")
	}
	if e.Stats().Rejected == 0 {
		t.Fatal("rejection not counted in stats")
	}

	close(gate)
	wg.Wait()
	if succeeded.Load() == 0 {
		t.Fatal("no patient submitter completed after the gate opened")
	}
}

func TestShutdownDrainsAdmitted(t *testing.T) {
	const n = 12
	e, gate := gateEngine(t, Config{MaxBatch: 4, Workers: 2, QueueDepth: 64})

	var wg sync.WaitGroup
	var done atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(uint64(i))}); err != nil {
				t.Errorf("admitted request lost during drain: %v", err)
				return
			}
			done.Add(1)
		}(i)
	}
	// Wait until all n are admitted before starting shutdown.
	for start := time.Now(); e.Stats().Submitted < n; {
		if time.Since(start) > 10*time.Second {
			t.Fatalf("only %d/%d admitted", e.Stats().Submitted, n)
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while requests were still wedged")
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the gate opened")
	}
	wg.Wait()
	if done.Load() != n {
		t.Fatalf("%d/%d admitted requests completed across shutdown", done.Load(), n)
	}
	if _, err := e.Submit(context.Background(), Request{Pixels: hardImage(0)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
}
