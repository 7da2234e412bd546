package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/metrics"
)

// DegradeRung is one level of the degradation ladder. Level 0 is always
// normal operation (hardness-based routing); deeper rungs either pin all
// traffic to a named route (a cheaper family member) or shed it outright.
type DegradeRung struct {
	// Name labels the rung in stats, metrics, and flight events.
	Name string
	// Route, when non-empty, pins every request to that route regardless
	// of hardness (requests asking for the converted image still take the
	// hard route — only the AE path produces one). Empty means normal
	// routing.
	Route RouteName
	// Shed refuses every request with ErrOverloaded. Typically the last
	// rung: the point where quality has run out and only availability of
	// the rest of the fleet is left to protect.
	Shed bool
}

// DefaultDegradeLadder is the minimal useful ladder over the built-in
// routes: normal routing, then pin everything to the classifier-only easy
// route, then shed. Deployments with compiled variants insert pruned rungs
// before the shed.
func DefaultDegradeLadder() []DegradeRung {
	return []DegradeRung{
		{Name: "full"},
		{Name: "exit", Route: RouteEasy},
		{Name: "shed", Shed: true},
	}
}

// DegradeConfig tunes the graceful-degradation controller: a state
// machine with hysteresis that walks the ladder down as SLO budget burns
// or queues fill and back up when pressure clears.
type DegradeConfig struct {
	// Enabled turns the controller on. DisableRouting forces it off.
	Enabled bool
	// Ladder is the ordered quality ladder; rung 0 must be a no-op
	// (normal routing) and every named Route must be registered. Nil
	// selects DefaultDegradeLadder.
	Ladder []DegradeRung
	// Interval is the controller's evaluation period. Default 100ms.
	Interval time.Duration
	// EscalateQueueFrac escalates when any live route's queue occupancy
	// reaches this fraction of its capacity. Default 0.75.
	EscalateQueueFrac float64
	// RelaxQueueFrac allows relaxing only while every queue is at or
	// below this occupancy. Default 0.10. The gap to EscalateQueueFrac is
	// the hysteresis band.
	RelaxQueueFrac float64
	// EscalateTicks is how many consecutive hot evaluations trigger one
	// step down the ladder. Default 2.
	EscalateTicks int
	// RelaxTicks is how many consecutive cool evaluations trigger one
	// step back up. Default 10 — deliberately slower than escalation so a
	// recovering server does not oscillate.
	RelaxTicks int
}

// burnThreshold escalates when the SLO burn signal (see
// Engine.SetDegradeBurnSignal) reaches this rate: the fast-window page
// threshold from internal/slo.
const burnThreshold = 14.4

func (c DegradeConfig) withDefaults() DegradeConfig {
	if c.Ladder == nil {
		c.Ladder = DefaultDegradeLadder()
	}
	if c.Interval <= 0 {
		c.Interval = 100 * time.Millisecond
	}
	if c.EscalateQueueFrac <= 0 {
		c.EscalateQueueFrac = 0.75
	}
	if c.RelaxQueueFrac <= 0 {
		c.RelaxQueueFrac = 0.10
	}
	if c.EscalateTicks <= 0 {
		c.EscalateTicks = 2
	}
	if c.RelaxTicks <= 0 {
		c.RelaxTicks = 10
	}
	return c
}

// DegradeTransition describes one ladder move, delivered to OnDegrade
// observers (the serve layer logs it and records a flight event).
type DegradeTransition struct {
	From     int
	To       int
	FromRung string
	ToRung   string
	Reason   string
	At       time.Time
}

// degrader holds the controller's state. All methods are nil-safe so the
// engine can call through unconditionally when degradation is off.
type degrader struct {
	cfg         DegradeConfig
	level       atomic.Int32
	transitions metrics.Counter
	routed      []metrics.Counter // per-rung admitted-request counters
	onChange    atomic.Value      // func(DegradeTransition)
	burn        atomic.Value      // func() float64
	stop        chan struct{}
	stopped     chan struct{}
	stopOnce    sync.Once
}

// newDegrader validates the ladder against the route registry and panics
// on structural mistakes — ladders are deployment configuration, and a
// typo'd route name must fail at startup, not at the first flash crowd.
func newDegrader(cfg DegradeConfig, byName map[RouteName]*route) *degrader {
	if len(cfg.Ladder) < 2 {
		panic("engine: degradation ladder needs at least two rungs")
	}
	if r0 := cfg.Ladder[0]; r0.Route != "" || r0.Shed {
		panic("engine: ladder rung 0 must be normal routing (no Route, no Shed)")
	}
	for i, rung := range cfg.Ladder {
		if rung.Name == "" {
			panic(fmt.Sprintf("engine: ladder rung %d has no name", i))
		}
		if rung.Shed && rung.Route != "" {
			panic(fmt.Sprintf("engine: ladder rung %q sets both Route and Shed", rung.Name))
		}
		if rung.Route != "" {
			if _, ok := byName[rung.Route]; !ok {
				panic(fmt.Sprintf("engine: ladder rung %q pins unknown route %q", rung.Name, rung.Route))
			}
		}
	}
	return &degrader{
		cfg:     cfg,
		routed:  make([]metrics.Counter, len(cfg.Ladder)),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
}

// burnRate reads the injected SLO burn signal; 0 when none is wired.
func (d *degrader) burnRate() float64 {
	if fn, ok := d.burn.Load().(func() float64); ok && fn != nil {
		return fn()
	}
	return 0
}

// setLevel moves the ladder to the given rung and notifies the observer
// on an actual change. Used by the controller and by SetDegradeLevel.
func (d *degrader) setLevel(to int, reason string) {
	if to < 0 {
		to = 0
	}
	if max := len(d.cfg.Ladder) - 1; to > max {
		to = max
	}
	from := int(d.level.Swap(int32(to)))
	if from == to {
		return
	}
	d.transitions.Inc()
	if fn, ok := d.onChange.Load().(func(DegradeTransition)); ok && fn != nil {
		fn(DegradeTransition{
			From: from, To: to,
			FromRung: d.cfg.Ladder[from].Name,
			ToRung:   d.cfg.Ladder[to].Name,
			Reason:   reason,
			At:       time.Now(),
		})
	}
}

// noteAdmitted attributes one admitted request to the current rung.
func (d *degrader) noteAdmitted() {
	if d == nil {
		return
	}
	d.routed[int(d.level.Load())].Inc()
}

// stopController shuts the evaluation goroutine down (idempotent).
func (d *degrader) stopController() {
	if d == nil {
		return
	}
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.stopped
}

// degradeLoop is the controller goroutine: every Interval it reads the
// worst queue occupancy across live routes and the SLO burn signal, and
// moves one rung after EscalateTicks consecutive hot reads or RelaxTicks
// consecutive cool reads. The asymmetric tick counts plus the queue-
// fraction band give the hysteresis that keeps the ladder from chattering
// around a threshold.
func (e *Engine) degradeLoop() {
	d := e.deg
	defer close(d.stopped)
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	hotStreak, coolStreak := 0, 0
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
		}
		pressure := 0.0
		for _, rt := range e.live {
			if f := float64(len(rt.queue)) / float64(cap(rt.queue)); f > pressure {
				pressure = f
			}
		}
		burn := d.burnRate()
		lvl := int(d.level.Load())
		// Burn-rate evidence escalates only into serving rungs. Shedding
		// answers 5xx, which feeds the very SLO signal that demanded the
		// escalation — if burn could push into (or hold) the shed rung, the
		// controller would pin itself at full shed long after the queues
		// drained, because multi-minute burn windows take that long to
		// forgive the 503s the shed itself produced. So entering the shed
		// rung requires queue-pressure evidence, and leaving it considers
		// queue evidence alone; burn still holds the ladder at the cheapest
		// serving rung until the budget stops burning.
		atShed := d.cfg.Ladder[lvl].Shed
		nextIsShed := lvl+1 < len(d.cfg.Ladder) && d.cfg.Ladder[lvl+1].Shed
		burnHot := burn >= burnThreshold && !nextIsShed && !atShed
		// Breaker evidence feeds the controller the same way burn does,
		// but escalate-only and scoped to the routes the *current* rung
		// actually uses (see breakerHotAt): an open breaker pushes traffic
		// toward rungs that avoid the broken route, and then stops
		// counting, so relaxation can re-expose traffic for the half-open
		// probes that heal it. Like burn, it never enters the shed rung.
		breakerHot := !nextIsShed && !atShed && e.breakerHotAt(lvl)
		hot := pressure >= d.cfg.EscalateQueueFrac || burnHot || breakerHot
		cool := pressure <= d.cfg.RelaxQueueFrac && (burn < burnThreshold || atShed)
		switch {
		case hot && lvl < len(d.cfg.Ladder)-1:
			hotStreak++
			coolStreak = 0
			if hotStreak >= d.cfg.EscalateTicks {
				hotStreak = 0
				reason := fmt.Sprintf("queue pressure %.2f", pressure)
				if pressure < d.cfg.EscalateQueueFrac {
					reason = fmt.Sprintf("burn rate %.1f", burn)
					if breakerHot && burn < burnThreshold {
						reason = "breaker open on serving route"
					}
				}
				d.setLevel(lvl+1, reason)
			}
		case cool && lvl > 0:
			coolStreak++
			hotStreak = 0
			if coolStreak >= d.cfg.RelaxTicks {
				coolStreak = 0
				d.setLevel(lvl-1, "pressure cleared")
			}
		default:
			hotStreak, coolStreak = 0, 0
		}
	}
}

// currentRung returns the active non-zero ladder rung, or nil during
// normal operation (level 0, degradation off, or routing disabled).
func (e *Engine) currentRung() *DegradeRung {
	if e.deg == nil {
		return nil
	}
	lvl := int(e.deg.level.Load())
	if lvl == 0 {
		return nil
	}
	return &e.deg.cfg.Ladder[lvl]
}

// DegradeLevel reports the ladder's current level; 0 when degradation is
// off or the engine is healthy.
func (e *Engine) DegradeLevel() int {
	if e.deg == nil {
		return 0
	}
	return int(e.deg.level.Load())
}

// SetDegradeLevel pins the ladder to a level (clamped to the ladder),
// firing the same transition path as the controller. Meant for operator
// overrides and tests; the controller will move the level again on its
// next decisive evaluation, so pinning durably requires Enabled=false...
// or just an engine built with the ladder but no traffic pressure.
// No-op when degradation is off.
func (e *Engine) SetDegradeLevel(level int) {
	if e.deg == nil {
		return
	}
	e.deg.setLevel(level, "manual")
}

// OnDegrade installs the transition observer (replacing any previous
// one). The callback runs on the controller goroutine — keep it cheap.
// No-op when degradation is off.
func (e *Engine) OnDegrade(fn func(DegradeTransition)) {
	if e.deg == nil {
		return
	}
	e.deg.onChange.Store(fn)
}

// SetDegradeBurnSignal wires the SLO burn-rate source (the serve layer
// passes the worst fast-window burn rate across its trackers). The
// controller samples it once per evaluation. No-op when degradation is
// off.
func (e *Engine) SetDegradeBurnSignal(fn func() float64) {
	if e.deg == nil {
		return
	}
	e.deg.burn.Store(fn)
}

// DegradeLadder returns the configured rung names in order, or nil when
// degradation is off (surfaced by /info).
func (e *Engine) DegradeLadder() []string {
	if e.deg == nil {
		return nil
	}
	names := make([]string, len(e.deg.cfg.Ladder))
	for i, r := range e.deg.cfg.Ladder {
		names[i] = r.Name
	}
	return names
}

// DegradeSnapshot is the /stats view of the controller.
type DegradeSnapshot struct {
	Level       int                    `json:"level"`
	Rung        string                 `json:"rung"`
	Transitions int64                  `json:"transitions"`
	Levels      []DegradeLevelSnapshot `json:"levels"`
}

// DegradeLevelSnapshot describes one rung and how many requests were
// admitted while it was active.
type DegradeLevelSnapshot struct {
	Level  int    `json:"level"`
	Name   string `json:"name"`
	Route  string `json:"route,omitempty"`
	Shed   bool   `json:"shed,omitempty"`
	Images int64  `json:"images"`
}

// snapshot returns nil when degradation is off (omitted from /stats).
func (d *degrader) snapshot() *DegradeSnapshot {
	if d == nil {
		return nil
	}
	lvl := int(d.level.Load())
	s := &DegradeSnapshot{
		Level:       lvl,
		Rung:        d.cfg.Ladder[lvl].Name,
		Transitions: d.transitions.Value(),
	}
	for i, rung := range d.cfg.Ladder {
		s.Levels = append(s.Levels, DegradeLevelSnapshot{
			Level:  i,
			Name:   rung.Name,
			Route:  string(rung.Route),
			Shed:   rung.Shed,
			Images: d.routed[i].Value(),
		})
	}
	return s
}
