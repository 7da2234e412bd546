// Package slo implements a live, multi-window, multi-burn-rate SLO monitor
// in the Google SRE style: each objective (availability, latency) owns an
// error budget, and the monitor tracks how fast traffic is burning it over
// several look-back windows at once. A short window with a high burn-rate
// threshold catches fast outages within seconds; long windows with low
// thresholds catch slow leaks that would quietly exhaust the budget.
//
// The design constraints mirror internal/trace: observation is the hot
// path (one atomic add per request), so Tracker.Observe is lock-free and
// allocation-free, while the windowing machinery runs on a cold periodic
// tick. Windows are computed from a ring of cumulative (good, bad)
// checkpoints written every Resolution; a window's totals are the live
// counters minus the checkpoint at the window's start, so the current
// partial bucket is always included and a fresh burst is visible on the
// very next tick rather than after a full bucket rolls.
package slo

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Objective is one service-level objective: Target is the required fraction
// of good events (0.999 availability, 0.99 of requests under the latency
// threshold), and 1−Target is the error budget the burn rates are measured
// against.
type Objective struct {
	// Name labels the objective in metrics and the /slo verdict
	// ("availability", "latency").
	Name string
	// Target is the required good fraction in (0, 1).
	Target float64
	// Description explains what counts as a bad event.
	Description string
}

// Budget returns the objective's error budget, 1−Target.
func (o Objective) Budget() float64 { return 1 - o.Target }

// Window is one burn-rate look-back window with its trip threshold. The
// default set follows the SRE workbook's multi-window alert: a fast-burn
// page threshold on the short window and progressively lower thresholds on
// the longer ones.
type Window struct {
	Name string
	Dur  time.Duration
	// Burn is the burn-rate threshold at which the window trips: a burn
	// rate of 1 spends exactly the window's share of budget; 14.4 over 5m
	// exhausts a 30-day budget in 2 days.
	Burn float64
}

// DefaultWindows returns the monitor's standard window set.
func DefaultWindows() []Window {
	return []Window{
		{Name: "5m", Dur: 5 * time.Minute, Burn: 14.4},
		{Name: "1h", Dur: time.Hour, Burn: 6},
		{Name: "6h", Dur: 6 * time.Hour, Burn: 1},
	}
}

// Config assembles a Tracker.
type Config struct {
	Objective Objective
	// Windows defaults to DefaultWindows(). Must be sorted ascending by
	// duration; the longest window is the budget-remaining horizon.
	Windows []Window
	// Resolution is the checkpoint spacing; windows are quantised to it.
	// Defaults to 5s. The ring holds longest-window/Resolution entries.
	Resolution time.Duration
	// MinEvents is the minimum event count a window must hold before it
	// may trip, so a single failed request on an idle server does not
	// page. Defaults to 10.
	MinEvents int64
}

// Trip describes one window crossing its burn threshold (a rising edge).
type Trip struct {
	Objective string
	Window    string
	BurnRate  float64
	Threshold float64
	Good, Bad int64
	At        time.Time
}

// String renders the trip for logs and dump reasons.
func (t Trip) String() string {
	return fmt.Sprintf("slo %s: %s window burn %.1f >= %.1f (%d bad / %d total)",
		t.Objective, t.Window, t.BurnRate, t.Threshold, t.Bad, t.Good+t.Bad)
}

// checkpoint is the cumulative totals at one resolution boundary.
type checkpoint struct {
	good, bad int64
}

// Tracker follows one objective. Observe is the lock-free hot path; Advance
// and Snapshot are cold, mutex-guarded.
type Tracker struct {
	obj       Objective
	windows   []Window
	res       time.Duration
	minEvents int64

	good atomic.Int64
	bad  atomic.Int64

	mu       sync.Mutex
	ring     []checkpoint // cumulative totals, one per elapsed resolution
	head     int          // index of the most recent checkpoint
	filled   int          // number of valid entries
	lastTick time.Time    // time of the most recent checkpoint
	tripped  []bool       // per window, current trip state
	trips    []int64      // per window, cumulative rising edges
}

// NewTracker builds a tracker; now anchors the first checkpoint.
func NewTracker(cfg Config, now time.Time) (*Tracker, error) {
	if cfg.Objective.Target <= 0 || cfg.Objective.Target >= 1 {
		return nil, fmt.Errorf("slo: objective %q target %v outside (0,1)", cfg.Objective.Name, cfg.Objective.Target)
	}
	if len(cfg.Windows) == 0 {
		cfg.Windows = DefaultWindows()
	}
	if cfg.Resolution <= 0 {
		cfg.Resolution = 5 * time.Second
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 10
	}
	for i := 1; i < len(cfg.Windows); i++ {
		if cfg.Windows[i].Dur <= cfg.Windows[i-1].Dur {
			return nil, fmt.Errorf("slo: windows not ascending at %q", cfg.Windows[i].Name)
		}
	}
	longest := cfg.Windows[len(cfg.Windows)-1].Dur
	capacity := int(longest/cfg.Resolution) + 1
	return &Tracker{
		obj:       cfg.Objective,
		windows:   append([]Window(nil), cfg.Windows...),
		res:       cfg.Resolution,
		minEvents: cfg.MinEvents,
		ring:      make([]checkpoint, capacity),
		lastTick:  now,
		tripped:   make([]bool, len(cfg.Windows)),
		trips:     make([]int64, len(cfg.Windows)),
	}, nil
}

// Observe records one event outcome. Lock-free and allocation-free; safe
// for concurrent use from any goroutine. Nil-safe so unconfigured SLOs cost
// one branch.
func (t *Tracker) Observe(good bool) {
	if t == nil {
		return
	}
	if good {
		t.good.Add(1)
	} else {
		t.bad.Add(1)
	}
}

// Advance rolls checkpoints up to now and re-evaluates every window's trip
// state, returning the rising edges. Call it from a periodic tick (Monitor
// does) or before reading; it is idempotent within one resolution interval
// for the checkpoint ring but always re-evaluates trips against the live
// counters.
func (t *Tracker) Advance(now time.Time) []Trip {
	t.mu.Lock()
	curGood, curBad := t.good.Load(), t.bad.Load()
	steps := 0
	if now.After(t.lastTick) {
		steps = int(now.Sub(t.lastTick) / t.res)
	}
	if steps > 0 {
		if steps > len(t.ring) {
			// Everything in the ring predates the longest window; the
			// skipped intermediate checkpoints would all carry the same
			// totals anyway.
			steps = len(t.ring)
		}
		for i := 0; i < steps; i++ {
			t.head = (t.head + 1) % len(t.ring)
			t.ring[t.head] = checkpoint{good: curGood, bad: curBad}
		}
		if t.filled += steps; t.filled > len(t.ring) {
			t.filled = len(t.ring)
		}
		t.lastTick = t.lastTick.Add(time.Duration(steps) * t.res)
	}

	var fired []Trip
	for i, w := range t.windows {
		ws := t.windowLocked(w, curGood, curBad)
		trippedNow := ws.BurnRate >= w.Burn && ws.Good+ws.Bad >= t.minEvents
		if trippedNow && !t.tripped[i] {
			t.trips[i]++
			fired = append(fired, Trip{
				Objective: t.obj.Name, Window: w.Name,
				BurnRate: ws.BurnRate, Threshold: w.Burn,
				Good: ws.Good, Bad: ws.Bad, At: now,
			})
		}
		t.tripped[i] = trippedNow
	}
	t.mu.Unlock()
	return fired
}

// WindowSnapshot is one window's point-in-time burn accounting.
type WindowSnapshot struct {
	Window  string  `json:"window"`
	Seconds float64 `json:"seconds"`
	Good    int64   `json:"good"`
	Bad     int64   `json:"bad"`
	// BadFraction is bad/(good+bad), 0 when the window is empty.
	BadFraction float64 `json:"badFraction"`
	// BurnRate is BadFraction divided by the error budget: 1 means the
	// budget is being spent exactly at its sustainable rate.
	BurnRate  float64 `json:"burnRate"`
	Threshold float64 `json:"threshold"`
	Tripped   bool    `json:"tripped"`
	// Trips counts rising edges since start (the
	// cbnet_slo_window_violations_total series).
	Trips int64 `json:"trips"`
}

// Snapshot is one objective's point-in-time view.
type Snapshot struct {
	Objective   string  `json:"objective"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// BudgetRemaining is the unspent error-budget fraction over the
	// longest window: 1 is untouched, 0 exhausted, negative overspent.
	BudgetRemaining float64 `json:"budgetRemaining"`
	// State summarises the windows: "ok", "burning" (any window tripped),
	// or "exhausted" (budget remaining <= 0).
	State   string           `json:"state"`
	Windows []WindowSnapshot `json:"windows"`
}

// windowLocked computes one window's totals from the live counters and the
// checkpoint at the window's start. t.mu must be held.
func (t *Tracker) windowLocked(w Window, curGood, curBad int64) WindowSnapshot {
	k := int(w.Dur / t.res)
	if k > t.filled {
		// The process is younger than the window: measure since start
		// (all-zero baseline).
		k = t.filled
	}
	var base checkpoint
	if k > 0 {
		base = t.ring[((t.head-k)%len(t.ring)+len(t.ring))%len(t.ring)]
	}
	ws := WindowSnapshot{
		Window:    w.Name,
		Seconds:   w.Dur.Seconds(),
		Good:      curGood - base.good,
		Bad:       curBad - base.bad,
		Threshold: w.Burn,
	}
	if total := ws.Good + ws.Bad; total > 0 {
		ws.BadFraction = float64(ws.Bad) / float64(total)
		ws.BurnRate = ws.BadFraction / t.obj.Budget()
	}
	return ws
}

// Snapshot advances to now and returns the objective's full view.
func (t *Tracker) Snapshot(now time.Time) Snapshot {
	t.Advance(now)
	t.mu.Lock()
	defer t.mu.Unlock()
	curGood, curBad := t.good.Load(), t.bad.Load()
	snap := Snapshot{
		Objective:   t.obj.Name,
		Description: t.obj.Description,
		Target:      t.obj.Target,
		State:       "ok",
	}
	for i, w := range t.windows {
		ws := t.windowLocked(w, curGood, curBad)
		ws.Tripped = t.tripped[i]
		ws.Trips = t.trips[i]
		snap.Windows = append(snap.Windows, ws)
	}
	longest := snap.Windows[len(snap.Windows)-1]
	snap.BudgetRemaining = 1 - longest.BurnRate
	switch {
	case snap.BudgetRemaining <= 0:
		snap.State = "exhausted"
	default:
		for _, ws := range snap.Windows {
			if ws.Tripped {
				snap.State = "burning"
				break
			}
		}
	}
	return snap
}

// Monitor bundles the trackers of one serving process, runs their periodic
// advance, and fans trip events out to a callback (the flight recorder's
// auto-dump hook).
type Monitor struct {
	trackers []*Tracker
	onTrip   func(Trip)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewMonitor builds a monitor over the given trackers. onTrip may be nil;
// it is invoked outside any tracker lock, from the monitor's tick goroutine
// (or the Advance caller).
func NewMonitor(trackers []*Tracker, onTrip func(Trip)) *Monitor {
	return &Monitor{trackers: trackers, onTrip: onTrip}
}

// Advance rolls every tracker to now and dispatches trips.
func (m *Monitor) Advance(now time.Time) []Trip {
	var all []Trip
	for _, t := range m.trackers {
		all = append(all, t.Advance(now)...)
	}
	if m.onTrip != nil {
		for _, tr := range all {
			m.onTrip(tr)
		}
	}
	return all
}

// Snapshot advances and returns every objective's view, in registration
// order.
func (m *Monitor) Snapshot(now time.Time) []Snapshot {
	m.Advance(now) // dispatch trips before reading state
	out := make([]Snapshot, 0, len(m.trackers))
	for _, t := range m.trackers {
		out = append(out, t.Snapshot(now))
	}
	return out
}

// Start launches the periodic advance loop; Stop (idempotent) halts it.
// Trip detection latency is one interval, which must be positive.
func (m *Monitor) Start(interval time.Duration) {
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				m.Advance(now)
			}
		}
	}()
}

// Stop halts the advance loop started by Start and waits for it to exit.
func (m *Monitor) Stop() {
	if m.stop == nil {
		return
	}
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}
