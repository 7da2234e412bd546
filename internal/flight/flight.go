// Package flight is the serving stack's black-box flight recorder: the tail
// of the serve layer's request-outcome track plus a bounded tail of
// structured log lines, snapshotted into one correlated JSON dump when
// something goes wrong (an SLO burn-rate trip or a 503 burst) or on demand
// via GET /debug/flight.
//
// The package records nothing itself. Request outcomes are trace.Spans the
// serve layer writes once, to its own trace.Recorder (the "serve" track of
// /debug/trace); a dump lists that recorder's snapshot as its events. What
// lives here is the log tail, the 503-burst detector and the dump policy:
// when to write one, how often, and where.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cbnet/internal/trace"
)

// logLines bounds the retained slog tail.
const logLines = 64

// Entry is one span of the serve track as a dump lists it, names resolved.
type Entry struct {
	Seq       uint64  `json:"seq"`
	TMs       float64 `json:"tMs"` // when the outcome was stamped, ms since the trace epoch (matches /debug/trace)
	Kind      string  `json:"kind"`
	RequestID uint64  `json:"requestId,omitempty"`
	Route     string  `json:"route,omitempty"`
	Status    int     `json:"status,omitempty"`
	DurMs     float64 `json:"durMs,omitempty"`
	BatchSize int     `json:"batchSize,omitempty"`
}

func renderSpan(s trace.Span) Entry {
	e := Entry{
		Seq:       s.Seq,
		TMs:       float64(s.Start+s.Dur) / 1e6,
		Kind:      s.Kind.String(),
		RequestID: s.ID,
		Status:    s.Step,
		DurMs:     float64(s.Dur) / 1e6,
		BatchSize: s.Batch,
	}
	if s.Name != 0 {
		e.Route = s.Name.String()
	}
	return e
}

// Dump is one correlated flight snapshot: the serve track's recent request
// outcomes, the bounded log tail, and whatever the context callback
// contributes (every span track, queue gauges, SLO state).
type Dump struct {
	Trigger       string         `json:"trigger"`
	At            time.Time      `json:"at"`
	LastTrigger   string         `json:"lastTrigger,omitempty"`
	LastTriggerAt time.Time      `json:"lastTriggerAt,omitempty"`
	Events        []Entry        `json:"events"`
	DroppedEvents uint64         `json:"droppedEvents"`
	Logs          []string       `json:"logs,omitempty"`
	Context       map[string]any `json:"context,omitempty"`
}

// Config assembles a Recorder.
type Config struct {
	// Dir, when non-empty, receives auto-dump files
	// (flight-<unix>-<n>.json). Empty keeps dumps in memory only.
	Dir string
	// Cooldown is the minimum spacing between auto-dumps; default 30s.
	Cooldown time.Duration
	// BurstThreshold rejects within BurstWindow trigger a 503-burst dump;
	// defaults 10 within 1s.
	BurstThreshold int
	BurstWindow    time.Duration
}

// Recorder owns the log tail, the burst detector and the dump policy, and
// reads the request outcomes it dumps from the serve layer's span recorder.
type Recorder struct {
	cfg     Config // defaults applied
	events  *trace.Recorder
	logs    *LogBuffer
	context func() map[string]any

	// rejects is a fixed ring of recent reject timestamps (trace ns) for
	// burst detection; mutex-guarded — the 503 path already left the
	// zero-alloc contract when it serialized the error body.
	mu          sync.Mutex
	rejects     []int64
	rejectHead  int
	lastDump    time.Time
	lastTrigger string
	lastTripAt  time.Time
	dumpSeq     int
	onDump      func(*Dump) // test hook
}

// New builds a Recorder whose dumps list the spans of events, the recorder
// the serve layer writes request outcomes to.
func New(cfg Config, events *trace.Recorder) *Recorder {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.BurstThreshold <= 0 {
		cfg.BurstThreshold = 10
	}
	if cfg.BurstWindow <= 0 {
		cfg.BurstWindow = time.Second
	}
	return &Recorder{
		cfg:    cfg,
		events: events,
		logs:   newLogBuffer(logLines),
		// N-1 slots: overwriting the (N-1)-back timestamp with the current
		// one means N rejects span the gap being tested.
		rejects: make([]int64, max(1, cfg.BurstThreshold-1)),
	}
}

// SetContext installs (or replaces) the dump-time context callback, which
// attaches correlated state (spans, queue gauges, SLO snapshots) to every
// dump. It must be safe to call from any goroutine.
func (r *Recorder) SetContext(fn func() map[string]any) {
	r.mu.Lock()
	r.context = fn
	r.mu.Unlock()
}

// Logs returns the slog tee handler; wrap the process logger's handler
// with it so dumps carry the last N rendered records.
func (r *Recorder) Logs() *LogBuffer { return r.logs }

// NoteReject feeds the 503-burst detector and auto-dumps when the
// threshold is crossed within the window. now is trace-epoch nanoseconds.
func (r *Recorder) NoteReject(now int64) {
	r.mu.Lock()
	oldest := r.rejects[r.rejectHead]
	r.rejects[r.rejectHead] = now
	r.rejectHead = (r.rejectHead + 1) % len(r.rejects)
	// The slot we just overwrote held the Nth-most-recent reject; if it
	// happened within the window, N rejects landed inside it.
	burst := oldest != 0 && now-oldest <= int64(r.cfg.BurstWindow)
	r.mu.Unlock()
	if burst {
		r.Trip(fmt.Sprintf("503-burst: >=%d rejects within %s", r.cfg.BurstThreshold, r.cfg.BurstWindow))
	}
}

// Trip requests an auto-dump for the given reason, honoring the cooldown.
// It is the hook the SLO monitor's trip callback lands on.
func (r *Recorder) Trip(reason string) {
	now := time.Now()
	r.mu.Lock()
	// A suppressed trigger is still remembered so /debug/flight shows it.
	r.lastTrigger, r.lastTripAt = reason, now
	cooling := !r.lastDump.IsZero() && now.Sub(r.lastDump) < r.cfg.Cooldown
	if !cooling {
		r.lastDump = now
	}
	r.mu.Unlock()
	if !cooling {
		r.DumpNow(reason)
	}
}

// DumpNow takes a snapshot for the given reason, writes it to the dump
// directory when there is one and hands it to the test hook — bypassing the
// auto-dump cooldown and without consuming it (a shutdown dump must not
// suppress — or be suppressed by — a recent burn/burst trip). It is the
// graceful-shutdown hook, and the tail of Trip.
func (r *Recorder) DumpNow(reason string) {
	d := r.Snapshot(reason)
	r.mu.Lock()
	r.dumpSeq++
	seq, hook := r.dumpSeq, r.onDump
	r.mu.Unlock()
	if r.cfg.Dir != "" {
		buf, err := json.MarshalIndent(d, "", "  ")
		if err == nil {
			name := fmt.Sprintf("flight-%d-%03d.json", d.At.Unix(), seq)
			err = os.WriteFile(filepath.Join(r.cfg.Dir, name), buf, 0o644)
		}
		if err != nil {
			// Dumping is best-effort; leave a trace in the log tail.
			r.logs.append(fmt.Sprintf("flight: dump write failed: %v", err))
		}
	}
	if hook != nil {
		hook(d)
	}
}

// Snapshot gathers a fresh dump without touching the auto-dump policy; GET
// /debug/flight serves it on demand.
func (r *Recorder) Snapshot(trigger string) *Dump {
	r.mu.Lock()
	ctx := r.context
	lastTrigger, lastAt := r.lastTrigger, r.lastTripAt
	r.mu.Unlock()
	spans := r.events.Snapshot()
	rendered := make([]Entry, len(spans))
	for i, s := range spans {
		rendered[i] = renderSpan(s)
	}
	d := &Dump{
		Trigger:       trigger,
		At:            time.Now(),
		LastTrigger:   lastTrigger,
		LastTriggerAt: lastAt,
		Events:        rendered,
		DroppedEvents: r.events.Dropped(),
		Logs:          r.logs.Tail(),
	}
	if ctx != nil {
		d.Context = ctx()
	}
	return d
}
