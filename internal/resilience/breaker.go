package resilience

import (
	"sync/atomic"
	"time"
)

// State is a circuit breaker's position.
type State int32

const (
	// Closed: traffic flows, outcomes are recorded in the rolling window.
	Closed State = iota
	// Open: the route is considered broken; Allow rejects until the
	// cooldown elapses, then the breaker moves to HalfOpen.
	Open
	// HalfOpen: a bounded number of probe requests are admitted; enough
	// successes close the breaker, any failure re-opens it.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// failureThreshold is the windowed failure fraction at or above which a
// Breaker trips open.
const failureThreshold = 0.5

// BreakerConfig tunes a Breaker. Zero values take the defaults below.
type BreakerConfig struct {
	// Window is the number of most-recent batch outcomes the rolling
	// error-rate is computed over. Default 20.
	Window int
	// MinSamples gates tripping: the breaker never opens before this
	// many outcomes are in the window, so one early failure on a cold
	// route can't open it. Default 10.
	MinSamples int
	// Cooldown is how long an open breaker waits before admitting
	// half-open probes. It also re-arms a stalled half-open state whose
	// probes were admitted but never produced an outcome (e.g. shed
	// upstream). Default 1s.
	Cooldown time.Duration
	// Probes is how many requests the half-open state admits, and how
	// many must succeed to close the breaker. Default 3.
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 10
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 3
	}
	return c
}

// Breaker is a per-route circuit breaker over a count-based rolling
// window of batch outcomes. Observe and Allow are lock-free and
// allocation-free; state transitions are CAS-guarded so exactly one
// caller wins each edge and runs the (cold) transition work.
type Breaker struct {
	cfg BreakerConfig

	state atomic.Int32 // State

	// Rolling window. ring slots hold 0 (empty), 1 (success), 2 (failure)
	// so min-sample accounting survives ring reuse after a reset.
	ring     []atomic.Uint32
	seq      atomic.Uint64 // next slot index (monotonic)
	failures atomic.Int64  // failures currently in the window

	openedAt   atomic.Int64 // ns timestamp of the last trip
	halfOpenAt atomic.Int64 // ns timestamp of entering half-open
	probes     atomic.Int64 // probes admitted this half-open round
	probeOK    atomic.Int64 // probe successes this half-open round

	transitions atomic.Uint64

	// onChange, if set before concurrent use, fires on the winning side
	// of every state transition.
	onChange func(from, to State)

	now func() int64 // injectable clock (ns), cold paths only
}

// NewBreaker builds a breaker. onChange may be nil; if non-nil it must be
// set here (before concurrent use) and is invoked once per transition by
// the goroutine that won the CAS.
func NewBreaker(cfg BreakerConfig, onChange func(from, to State)) *Breaker {
	cfg = cfg.withDefaults()
	return &Breaker{
		cfg:      cfg,
		ring:     make([]atomic.Uint32, cfg.Window),
		onChange: onChange,
		now:      func() int64 { return time.Now().UnixNano() },
	}
}

// State reports the current position.
func (b *Breaker) State() State { return State(b.state.Load()) }

// Transitions reports how many state edges the breaker has taken.
func (b *Breaker) Transitions() uint64 { return b.transitions.Load() }

// Allow reports whether a request may be dispatched to the guarded
// route. In the open state it flips to half-open once the cooldown has
// elapsed; in half-open it admits up to Probes requests per round.
// Allocation-free on every path.
func (b *Breaker) Allow() bool {
	switch State(b.state.Load()) {
	case Closed:
		return true
	case Open:
		if b.now()-b.openedAt.Load() < int64(b.cfg.Cooldown) {
			return false
		}
		if b.transition(Open, HalfOpen) {
			// The CAS winner's request is the first probe.
			b.probes.Add(1)
			return true
		}
		// Someone else just moved us to half-open; fall through and
		// compete for a probe slot.
		fallthrough
	case HalfOpen:
		if b.probes.Add(1) <= int64(b.cfg.Probes) {
			return true
		}
		// All probes issued. If none produced an outcome for a whole
		// cooldown (probes lost upstream), re-arm so the breaker can't
		// wedge half-open forever.
		at := b.halfOpenAt.Load()
		n := b.now()
		if n-at >= int64(b.cfg.Cooldown) && b.halfOpenAt.CompareAndSwap(at, n) {
			b.probes.Store(0)
			b.probeOK.Store(0)
		}
		return false
	default:
		return true
	}
}

// Observe records one batch outcome. In the closed state it updates the
// rolling window and trips the breaker when the windowed failure rate
// crosses the threshold; in half-open it advances or aborts the probe
// round. Allocation-free on every path.
func (b *Breaker) Observe(success bool) {
	switch State(b.state.Load()) {
	case Closed:
		v := uint32(1)
		if !success {
			v = 2
		}
		idx := b.seq.Add(1) - 1
		old := b.ring[idx%uint64(len(b.ring))].Swap(v)
		if old == 2 {
			b.failures.Add(-1)
		}
		if v == 2 {
			b.failures.Add(1)
		}
		samples := idx + 1
		if samples > uint64(len(b.ring)) {
			samples = uint64(len(b.ring))
		}
		if samples < uint64(b.cfg.MinSamples) {
			return
		}
		f := b.failures.Load()
		if f > 0 && float64(f) >= failureThreshold*float64(samples) {
			b.transition(Closed, Open)
		}
	case HalfOpen:
		if !success {
			b.transition(HalfOpen, Open)
			return
		}
		if b.probeOK.Add(1) >= int64(b.cfg.Probes) {
			b.transition(HalfOpen, Closed)
		}
	case Open:
		// Late outcome from a request admitted before the trip: drop it.
	}
}

// Samples reports how many outcomes are in the rolling window, and how
// many of them are failures. Both are approximate under concurrency.
func (b *Breaker) Samples() (total, failed int64) {
	n := b.seq.Load()
	if n > uint64(len(b.ring)) {
		n = uint64(len(b.ring))
	}
	return int64(n), b.failures.Load()
}

// transition CASes from→to; the winner runs the edge's bookkeeping and
// callback and returns true.
func (b *Breaker) transition(from, to State) bool {
	if !b.state.CompareAndSwap(int32(from), int32(to)) {
		return false
	}
	n := b.now()
	switch to {
	case Open:
		b.openedAt.Store(n)
	case HalfOpen:
		b.halfOpenAt.Store(n)
		b.probes.Store(0)
		b.probeOK.Store(0)
	case Closed:
		// Fresh window: a recovered route starts with a clean record.
		for i := range b.ring {
			b.ring[i].Store(0)
		}
		b.failures.Store(0)
		b.seq.Store(0)
	}
	b.transitions.Add(1)
	if b.onChange != nil {
		b.onChange(from, to)
	}
	return true
}
