// Package chaos is the serving stack's fault-injection toolkit: an
// Injector that implements the engine's FaultInjector hook (per-route
// artificial inference latency, every-Nth errors and panics, injected
// through the exact code path real faults take) and load Waves that shape
// open-loop flash-crowd traffic, optionally clock-skewed across client
// cohorts. It exists to prove the graceful-degradation machinery under
// controlled overload — the -exp overload experiment, the serve-level
// chaos tests, and the CI chaos smoke all drive it.
package chaos

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/tensor"
)

// ErrInjected is the error the Injector returns on error-injection ticks;
// the engine wraps it in ErrInferFailed.
var ErrInjected = errors.New("chaos: injected inference error")

// Injector implements engine.FaultInjector. All knobs are safe to flip
// while the engine is serving, which is the point: tests wedge a healthy
// engine, break it, and heal it again without restarts.
type Injector struct {
	mu         sync.RWMutex
	lat        map[string]time.Duration // per-route artificial batch latency
	defaultLat time.Duration

	errEvery   atomic.Int64 // inject an error on every Nth batch (0 = off)
	panicEvery atomic.Int64 // inject a panic on every Nth batch (0 = off)

	// poisonBits, when non-zero, is the float32 bit pattern of a poison
	// pixel value: any batch whose rows start with it panics. Content-
	// keyed (unlike every-Nth), so the same input fails deterministically
	// — exactly what the quarantine needs to be testable.
	poisonBits atomic.Uint32
	// stuckRoute, when set, fails every batch on the named route ("*"
	// means all routes): a device wedged hard, the breaker's natural prey.
	stuckRoute atomic.Value // string

	batches atomic.Uint64
}

// NewInjector returns an injector with every fault disabled.
func NewInjector() *Injector {
	return &Injector{lat: make(map[string]time.Duration)}
}

// SetLatency adds an artificial delay to every batch on the named route;
// route "" sets the default applied to routes without a specific entry.
// Per-route latency is what makes degradation observable in miniature:
// give the hard route a large delay and the cheaper routes small ones, and
// the ladder's capacity steps become real.
func (i *Injector) SetLatency(route string, d time.Duration) {
	i.mu.Lock()
	if route == "" {
		i.defaultLat = d
	} else {
		i.lat[route] = d
	}
	i.mu.Unlock()
}

// SetErrorEvery makes every nth batch fail with ErrInjected (0 disables).
func (i *Injector) SetErrorEvery(n int64) { i.errEvery.Store(n) }

// SetPanicEvery makes every nth batch panic (0 disables), exercising the
// worker's recover path.
func (i *Injector) SetPanicEvery(n int64) { i.panicEvery.Store(n) }

// SetPoisonValue makes any batch containing a row whose first pixel
// equals v (bit-exact) panic before inference — a content-keyed poison
// pill. v = 0 disables.
func (i *Injector) SetPoisonValue(v float32) { i.poisonBits.Store(math.Float32bits(v)) }

// SetStuck wedges the named route: every one of its batches fails with
// ErrInjected until cleared. Route "*" wedges all routes; "" un-wedges.
func (i *Injector) SetStuck(route string) { i.stuckRoute.Store(route) }

// BeforeInfer implements engine.FaultInjector: it runs on the worker
// goroutine just before the batch's forward pass. The batch is counted and
// delayed first; then a stuck route, a panic or error tick fails it; then,
// with a poison value armed, a batch containing any row whose first pixel
// carries the poison bit pattern panics, the way a malformed input crashing
// a kernel would. Bit-exact comparison keeps that content-keyed and
// deterministic.
func (i *Injector) BeforeInfer(route string, x *tensor.Tensor) error {
	i.mu.RLock()
	d, ok := i.lat[route]
	if !ok {
		d = i.defaultLat
	}
	i.mu.RUnlock()
	if d > 0 {
		time.Sleep(d)
	}
	n := i.batches.Add(1)
	if stuck, _ := i.stuckRoute.Load().(string); stuck != "" && (stuck == "*" || stuck == route) {
		return fmt.Errorf("%w: route %s is stuck", ErrInjected, route)
	}
	if every := i.panicEvery.Load(); every > 0 && n%uint64(every) == 0 {
		panic(fmt.Sprintf("chaos: injected panic on %s batch %d (size %d)", route, n, x.Shape[0]))
	}
	if every := i.errEvery.Load(); every > 0 && n%uint64(every) == 0 {
		return ErrInjected
	}
	bits := i.poisonBits.Load()
	if bits == 0 || len(x.Shape) != 2 {
		return nil
	}
	cols := x.Shape[1]
	for row := 0; row < x.Shape[0]; row++ {
		if math.Float32bits(x.Data[row*cols]) == bits {
			panic(fmt.Sprintf("chaos: poison pixel in %s batch row %d", route, row))
		}
	}
	return nil
}
