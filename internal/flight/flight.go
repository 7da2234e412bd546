// Package flight is the serving stack's black-box flight recorder: a
// fixed-size, allocation-free ring of recent request lifecycle events plus
// a bounded tail of structured log lines, snapshotted into one correlated
// JSON dump when something goes wrong (an SLO burn-rate trip or a 503
// burst) or on demand via GET /debug/flight.
//
// The event ring reuses the per-slot seqlock scheme from internal/trace,
// extended to multiple writers: every HTTP handler goroutine records
// events, so a writer first claims a slot index with one atomic add, then
// CAS-locks the slot's sequence from even to odd. If the CAS fails —
// another writer is still inside the slot, which can only happen when the
// ring wraps a full revolution mid-write — the event is dropped and
// counted rather than blocking or tearing. Readers discard slots whose
// sequence was odd or changed during the read, exactly as in trace.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cbnet/internal/trace"
)

// EventKind classifies one request lifecycle event.
type EventKind uint8

const (
	// KindAdmit marks a request entering the server (ID issued).
	KindAdmit EventKind = iota
	// KindComplete marks a successful response.
	KindComplete
	// KindReject marks an admission-control 503.
	KindReject
	// KindError marks any other error response (400/413/500/...).
	KindError
	// KindAbandon marks a caller that gave up before its result.
	KindAbandon
	// KindBreaker marks a circuit-breaker state transition: Status
	// carries the new state (0 closed, 1 open, 2 half-open), Route the
	// interned name of the guarded route.
	KindBreaker
	// KindQuarantine marks a request rejected at admission because its
	// content fingerprint matched a quarantined poison pill.
	KindQuarantine
)

// String names the kind for dump rendering.
func (k EventKind) String() string {
	switch k {
	case KindAdmit:
		return "admit"
	case KindComplete:
		return "complete"
	case KindReject:
		return "reject"
	case KindError:
		return "error"
	case KindAbandon:
		return "abandon"
	case KindBreaker:
		return "breaker"
	case KindQuarantine:
		return "quarantine"
	}
	return "unknown"
}

// Event is one request lifecycle record. Route is interned via
// trace.Intern so events stay fixed-size; T is nanoseconds since the trace
// epoch, the same clock the span rings use, so dumps correlate directly
// with /debug/trace output.
type Event struct {
	Seq       uint64
	T         int64
	Kind      EventKind
	RequestID uint64
	Route     trace.NameID
	Status    int   // HTTP status delivered, 0 for admits
	DurNs     int64 // wall time to respond, 0 for admits
	BatchSize int
}

// eslot is one ring cell; all fields are atomics so snapshots are
// race-detector-clean, with seq as the per-slot seqlock.
type eslot struct {
	seq   atomic.Uint64
	gseq  atomic.Uint64
	t     atomic.Int64
	reqID atomic.Uint64
	meta  atomic.Uint64 // kind<<56 | batch<<40 | status<<24 | route
	dur   atomic.Int64
}

func packEventMeta(kind EventKind, batch, status int, route trace.NameID) uint64 {
	if batch > 0xFFFF {
		batch = 0xFFFF
	}
	if status > 0xFFFF {
		status = 0xFFFF
	}
	return uint64(kind)<<56 | uint64(batch)<<40 | uint64(status)<<24 | uint64(route)&0xFFFFFF
}

func unpackEventMeta(m uint64) (kind EventKind, batch, status int, route trace.NameID) {
	return EventKind(m >> 56), int(m >> 40 & 0xFFFF), int(m >> 24 & 0xFFFF), trace.NameID(m & 0xFFFFFF)
}

// Ring is the multi-writer event ring. The zero or nil Ring drops
// everything.
type Ring struct {
	slots   []eslot
	head    atomic.Uint64
	dropped atomic.Uint64
}

// NewRing builds a ring holding the most recent capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Ring{slots: make([]eslot, capacity)}
}

// Record stores one event. Lock-free, allocation-free, and safe from any
// goroutine: slot contention (a full ring wrap during one write) drops the
// event and bumps the dropped counter instead of blocking.
func (r *Ring) Record(e Event) {
	if r == nil || len(r.slots) == 0 {
		return
	}
	idx := r.head.Add(1) - 1
	sl := &r.slots[idx%uint64(len(r.slots))]
	seq := sl.seq.Load()
	if seq%2 != 0 || !sl.seq.CompareAndSwap(seq, seq+1) {
		r.dropped.Add(1)
		return
	}
	sl.gseq.Store(idx + 1)
	sl.t.Store(e.T)
	sl.reqID.Store(e.RequestID)
	sl.meta.Store(packEventMeta(e.Kind, e.BatchSize, e.Status, e.Route))
	sl.dur.Store(e.DurNs)
	sl.seq.Add(1)
}

// Dropped returns how many events were lost to slot contention.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Snapshot returns the recorded events, oldest first, discarding torn
// slots. Safe to call concurrently with Record.
func (r *Ring) Snapshot() []Event {
	if r == nil || len(r.slots) == 0 {
		return nil
	}
	head := r.head.Load()
	n := head
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	out := make([]Event, 0, n)
	for i := uint64(0); i < n; i++ {
		sl := &r.slots[(head-n+i)%uint64(len(r.slots))]
		seq0 := sl.seq.Load()
		if seq0%2 != 0 {
			continue
		}
		var e Event
		e.Seq = sl.gseq.Load()
		e.T = sl.t.Load()
		e.RequestID = sl.reqID.Load()
		e.Kind, e.BatchSize, e.Status, e.Route = unpackEventMeta(sl.meta.Load())
		e.DurNs = sl.dur.Load()
		if sl.seq.Load() != seq0 {
			continue
		}
		out = append(out, e)
	}
	return out
}

// EventJSON is one event rendered for a dump, with names resolved.
type EventJSON struct {
	Seq       uint64  `json:"seq"`
	TMs       float64 `json:"tMs"` // ms since the trace epoch (matches /debug/trace)
	Kind      string  `json:"kind"`
	RequestID uint64  `json:"requestId,omitempty"`
	Route     string  `json:"route,omitempty"`
	Status    int     `json:"status,omitempty"`
	DurMs     float64 `json:"durMs,omitempty"`
	BatchSize int     `json:"batchSize,omitempty"`
}

func renderEvent(e Event) EventJSON {
	j := EventJSON{
		Seq:       e.Seq,
		TMs:       float64(e.T) / 1e6,
		Kind:      e.Kind.String(),
		RequestID: e.RequestID,
		Status:    e.Status,
		DurMs:     float64(e.DurNs) / 1e6,
		BatchSize: e.BatchSize,
	}
	if e.Route != 0 {
		j.Route = e.Route.String()
	}
	return j
}

// Dump is one correlated flight snapshot: the event ring, the bounded log
// tail, and whatever the context callback contributes (engine span tracks,
// queue gauges, SLO state).
type Dump struct {
	Trigger       string         `json:"trigger"`
	At            time.Time      `json:"at"`
	LastTrigger   string         `json:"lastTrigger,omitempty"`
	LastTriggerAt time.Time      `json:"lastTriggerAt,omitempty"`
	Events        []EventJSON    `json:"events"`
	DroppedEvents uint64         `json:"droppedEvents"`
	Logs          []string       `json:"logs,omitempty"`
	Context       map[string]any `json:"context,omitempty"`
}

// Config assembles a Recorder.
type Config struct {
	// EventCapacity sizes the lifecycle ring; default 1024.
	EventCapacity int
	// LogLines bounds the retained slog tail; default 64.
	LogLines int
	// Dir, when non-empty, receives auto-dump files
	// (flight-<unix>-<n>.json). Empty keeps dumps in memory only.
	Dir string
	// Cooldown is the minimum spacing between auto-dumps; default 30s.
	Cooldown time.Duration
	// BurstThreshold rejects within BurstWindow trigger a 503-burst dump;
	// defaults 10 within 1s.
	BurstThreshold int
	BurstWindow    time.Duration
	// Context, when set, is invoked at dump time to attach correlated
	// state (spans, queue gauges, SLO snapshots). It must be safe to call
	// from any goroutine.
	Context func() map[string]any
}

// Recorder owns the ring, the log tail, the burst detector, and the
// auto-dump policy.
type Recorder struct {
	ring    *Ring
	logs    *LogBuffer
	dir     string
	cool    time.Duration
	burstN  int
	burstW  time.Duration
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

// New builds a Recorder.
func New(cfg Config) *Recorder {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	if cfg.BurstThreshold <= 0 {
		cfg.BurstThreshold = 10
	}
	if cfg.BurstWindow <= 0 {
		cfg.BurstWindow = time.Second
	}
	if cfg.LogLines <= 0 {
		cfg.LogLines = 64
	}
	return &Recorder{
		ring:    NewRing(cfg.EventCapacity),
		logs:    newLogBuffer(cfg.LogLines),
		dir:     cfg.Dir,
		cool:    cfg.Cooldown,
		burstN:  cfg.BurstThreshold,
		burstW:  cfg.BurstWindow,
		context: cfg.Context,
		// N-1 slots: overwriting the (N-1)-back timestamp with the current
		// one means N rejects span the gap being tested.
		rejects: make([]int64, max(1, cfg.BurstThreshold-1)),
	}
}

// SetContext installs (or replaces) the dump-time context callback.
func (r *Recorder) SetContext(fn func() map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.context = fn
	r.mu.Unlock()
}

// Record stores one lifecycle event. Nil-safe, allocation-free.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.ring.Record(e)
}

// Logs returns the slog tee handler; wrap the process logger's handler
// with it so dumps carry the last N rendered records.
func (r *Recorder) Logs() *LogBuffer {
	if r == nil {
		return nil
	}
	return r.logs
}

// NoteReject feeds the 503-burst detector and auto-dumps when the
// threshold is crossed within the window. now is trace-epoch nanoseconds.
func (r *Recorder) NoteReject(now int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	oldest := r.rejects[r.rejectHead]
	r.rejects[r.rejectHead] = now
	r.rejectHead = (r.rejectHead + 1) % len(r.rejects)
	// The slot we just overwrote held the Nth-most-recent reject; if it
	// happened within the window, N rejects landed inside it.
	burst := oldest != 0 && now-oldest <= int64(r.burstW)
	r.mu.Unlock()
	if burst {
		r.Trip(fmt.Sprintf("503-burst: >=%d rejects within %s", r.burstN, r.burstW))
	}
}

// Trip requests an auto-dump for the given reason, honoring the cooldown.
// It is the hook the SLO monitor's trip callback lands on.
func (r *Recorder) Trip(reason string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if !r.lastDump.IsZero() && now.Sub(r.lastDump) < r.cool {
		// Still remember the trigger so /debug/flight shows it.
		r.lastTrigger, r.lastTripAt = reason, now
		r.mu.Unlock()
		return
	}
	r.lastDump = now
	r.lastTrigger, r.lastTripAt = reason, now
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()

	d := r.snapshot(reason, now)
	if r.dir != "" {
		if err := r.writeDump(d, seq, now); err != nil {
			// Dumping is best-effort; leave a trace in the log tail.
			r.logs.append(fmt.Sprintf("flight: dump write failed: %v", err))
		}
	}
	r.mu.Lock()
	hook := r.onDump
	r.mu.Unlock()
	if hook != nil {
		hook(d)
	}
}

// DumpNow writes an unconditional dump for the given reason, bypassing
// the auto-dump cooldown and without consuming it (a shutdown dump must
// not suppress — or be suppressed by — a recent burn/burst trip). It is
// the graceful-shutdown hook.
func (r *Recorder) DumpNow(reason string) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.dumpSeq++
	seq := r.dumpSeq
	r.mu.Unlock()
	d := r.snapshot(reason, now)
	d.Trigger = reason
	if r.dir != "" {
		if err := r.writeDump(d, seq, now); err != nil {
			r.logs.append(fmt.Sprintf("flight: dump write failed: %v", err))
		}
	}
	r.mu.Lock()
	hook := r.onDump
	r.mu.Unlock()
	if hook != nil {
		hook(d)
	}
}

func (r *Recorder) writeDump(d *Dump, seq int, now time.Time) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("flight-%d-%03d.json", now.Unix(), seq)
	return os.WriteFile(filepath.Join(r.dir, name), buf, 0o644)
}

// snapshot gathers a fresh dump without touching the auto-dump policy.
func (r *Recorder) snapshot(trigger string, now time.Time) *Dump {
	r.mu.Lock()
	ctx := r.context
	lastTrigger, lastAt := r.lastTrigger, r.lastTripAt
	r.mu.Unlock()
	events := r.ring.Snapshot()
	rendered := make([]EventJSON, len(events))
	for i, e := range events {
		rendered[i] = renderEvent(e)
	}
	d := &Dump{
		Trigger:       trigger,
		At:            now,
		LastTrigger:   lastTrigger,
		LastTriggerAt: lastAt,
		Events:        rendered,
		DroppedEvents: r.ring.Dropped(),
		Logs:          r.logs.Tail(),
	}
	if ctx != nil {
		d.Context = ctx()
	}
	return d
}

// Snapshot returns a fresh dump for on-demand serving (GET /debug/flight).
func (r *Recorder) Snapshot(trigger string) *Dump {
	if r == nil {
		return &Dump{Trigger: trigger, At: time.Now()}
	}
	return r.snapshot(trigger, time.Now())
}
