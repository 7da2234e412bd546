// Package trace is the serving stack's one lifecycle record: a Span is the
// only schema a request's stages are written in, a Recorder the only ring
// they are written to, and Now the only clock they are stamped on. The
// engine's workers each own a Recorder (queue, batch-form, execute, respond
// and plan-step spans); the serve layer owns one more for request outcomes
// (admit, complete, reject, ...), written from every handler goroutine.
//
// The design constraints come from the inference path's zero-alloc promise
// (see internal/nn's Plan.Execute and internal/engine's runBatch):
//
//   - Emit must not allocate, take a lock or wait, and is safe from any
//     goroutine. A writer claims the next stream position with one atomic
//     add, then locks that position's slot by swapping its sequence counter
//     from the even value it read to the odd value its position owns. If the
//     slot is odd or already holds a later position — another writer is
//     inside it, which takes the ring wrapping a full revolution during one
//     write — the span is dropped and counted (Dropped) instead.
//   - Readers (the /debug/trace and /debug/flight endpoints) run
//     concurrently with writers. The sequence counter is a per-slot seqlock
//     that also names what the slot holds: 2p+1 while position p is being
//     written, 2p+2 once it is stable. A reader keeps a slot only if the
//     counter names the position it expects before and after reading the
//     fields, so it never returns a torn, unwritten or superseded span. All
//     slot fields are atomics, so the scheme is also race-detector-clean.
//   - Span names are interned once on the cold path (Intern) and carried
//     as 32-bit IDs, keeping slots fixed-size (64 bytes) and Emit free of
//     string handling.
//
// Timestamps are nanoseconds since the package's epoch (process start),
// taken from the monotonic clock via Now. Stages that meet share the stamp
// they meet at — a queue span ends on the stamp its batch's execute span
// starts on, plan step i ends where step i+1 starts — so the parts of a
// request add up to its whole.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors all span timestamps; Now is monotonic since process start.
var epoch = time.Now()

// Now returns the current trace timestamp: monotonic nanoseconds since the
// package epoch. It does not allocate.
func Now() int64 { return int64(time.Since(epoch)) }

// Kind classifies a span within the request lifecycle.
type Kind uint8

const (
	// KindPlanStep is one precompiled step of a Plan.Execute call.
	KindPlanStep Kind = iota
	// KindQueue covers one request's admission-to-execution wait.
	KindQueue
	// KindBatchForm covers a batcher coalescing one micro-batch.
	KindBatchForm
	// KindExecute covers one batch's forward pass on a worker.
	KindExecute
	// KindRespond covers delivering one batch's results to its callers.
	KindRespond
	// KindBisect covers one fault-isolation re-run of a sub-batch after
	// its parent batch failed; Ref links to the failed parent batch.
	KindBisect

	// The kinds below are request outcomes, written by the serve layer to
	// its own track: ID is the request ID, Step the HTTP status delivered,
	// Name the route that answered (when one did), and the span runs from
	// admission to the reply (a request refused before admission is a point).

	// KindAdmit marks a request handed to the engine (zero duration).
	KindAdmit
	// KindComplete covers a served request, admission to reply.
	KindComplete
	// KindReject marks an admission-control 503 (overload, shutdown).
	KindReject
	// KindError marks any other error response (400/413/500/504...).
	KindError
	// KindAbandon marks a caller that went away before its result.
	KindAbandon
	// KindQuarantine marks a request refused at admission because its
	// content fingerprint matched a quarantined poison pill.
	KindQuarantine
	// KindBreaker marks a circuit-breaker transition: Name is the guarded
	// route, Step the new state (0 closed, 1 open, 2 half-open).
	KindBreaker
)

// kindNames are the kinds as /debug/trace categories and flight-dump kinds.
var kindNames = [...]string{
	KindPlanStep: "plan-step", KindQueue: "queue", KindBatchForm: "batch-form",
	KindExecute: "execute", KindRespond: "respond", KindBisect: "bisect",
	KindAdmit: "admit", KindComplete: "complete", KindReject: "reject", KindError: "error",
	KindAbandon: "abandon", KindQuarantine: "quarantine", KindBreaker: "breaker",
}

// String names the kind for trace rendering.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NameID is an interned span name. The zero value renders as "?".
type NameID uint32

// names is the global intern table. Interning happens on cold paths only
// (plan compilation, engine construction), so a mutex is fine.
var names struct {
	sync.RWMutex
	ids  map[string]NameID
	list []string
}

// Intern registers name and returns its stable ID. Safe for concurrent use;
// call it at setup time, never on the hot path.
func Intern(name string) NameID {
	names.RLock()
	id, ok := names.ids[name]
	names.RUnlock()
	if ok {
		return id
	}
	names.Lock()
	defer names.Unlock()
	if id, ok := names.ids[name]; ok {
		return id
	}
	if names.ids == nil {
		names.ids = make(map[string]NameID)
	}
	names.list = append(names.list, name)
	id = NameID(len(names.list)) // 0 stays "unknown"
	names.ids[name] = id
	return id
}

// String resolves the interned name (cold path).
func (id NameID) String() string {
	names.RLock()
	defer names.RUnlock()
	if id == 0 || int(id) > len(names.list) {
		return "?"
	}
	return names.list[id-1]
}

// Span is one recorded interval. ID correlates spans belonging to the same
// request or batch; Ref links across the two (a queue span's Ref is the
// batch it was served in, a bisect span's Ref the batch that failed).
type Span struct {
	Seq   uint64 // 1-based position in the recorder's stream, drops counted; set by Snapshot, ignored by Emit
	ID    uint64
	Ref   uint64
	Kind  Kind
	Name  NameID
	Step  int   // plan step index (KindPlanStep); HTTP status on a request outcome (same 16-bit slot field)
	Batch int   // batch size the span covered
	Start int64 // ns since the trace epoch
	Dur   int64 // ns
	FLOPs int64 // modelled work done in the span (KindPlanStep)
	Bytes int64 // modelled bytes moved in the span (KindPlanStep)
}

// GFLOPS returns the span's achieved compute rate, or 0 for untimed spans.
func (s Span) GFLOPS() float64 {
	if s.Dur <= 0 || s.FLOPs <= 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Dur)
}

// Intensity returns the span's modelled arithmetic intensity (FLOPs/byte),
// or 0 when no byte model is attached.
func (s Span) Intensity() float64 {
	if s.Bytes <= 0 || s.FLOPs <= 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Bytes)
}

// slot is one ring cell. Every field is atomic so concurrent snapshots are
// race-free; seq is the per-slot seqlock: 2p+1 while the writer of stream
// position p is inside, 2p+2 once that span is stable, 0 if never written.
type slot struct {
	seq   atomic.Uint64
	id    atomic.Uint64
	ref   atomic.Uint64
	meta  atomic.Uint64 // kind<<56 | step<<40 | batch<<24 | name
	start atomic.Int64
	dur   atomic.Int64
	flops atomic.Int64
	bytes atomic.Int64
}

func packMeta(kind Kind, step, batch int, name NameID) uint64 {
	if step > 0xFFFF {
		step = 0xFFFF
	}
	if batch > 0xFFFF {
		batch = 0xFFFF
	}
	return uint64(kind)<<56 | uint64(step)<<40 | uint64(batch)<<24 | uint64(name)&0xFFFFFF
}

func unpackMeta(m uint64) (kind Kind, step, batch int, name NameID) {
	return Kind(m >> 56), int(m >> 40 & 0xFFFF), int(m >> 24 & 0xFFFF), NameID(m & 0xFFFFFF)
}

// Recorder is a fixed-capacity ring of spans any goroutine may write to.
// Emit overwrites the oldest span once full. The zero Recorder (or a nil
// one) drops everything, so tracing can be left unwired at zero cost.
type Recorder struct {
	slots   []slot
	head    atomic.Uint64 // stream positions claimed so far
	dropped atomic.Uint64
}

// NewRecorder builds a recorder holding the most recent capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{slots: make([]slot, capacity)}
}

// Emit records one span. It is lock-free, allocation-free and safe from any
// goroutine: when another writer holds the slot (the ring wrapped a full
// revolution during that writer's Emit) the span is dropped and counted
// rather than waited for. A nil or zero recorder discards the span.
func (r *Recorder) Emit(s Span) {
	if r == nil || len(r.slots) == 0 {
		return
	}
	pos := r.head.Add(1) - 1
	sl := &r.slots[pos%uint64(len(r.slots))]
	seq := sl.seq.Load()
	if seq%2 != 0 || seq > 2*pos || !sl.seq.CompareAndSwap(seq, 2*pos+1) {
		r.dropped.Add(1)
		return
	}
	sl.id.Store(s.ID)
	sl.ref.Store(s.Ref)
	sl.meta.Store(packMeta(s.Kind, s.Step, s.Batch, s.Name))
	sl.start.Store(s.Start)
	sl.dur.Store(s.Dur)
	sl.flops.Store(s.FLOPs)
	sl.bytes.Store(s.Bytes)
	sl.seq.Store(2*pos + 2)
}

// Dropped returns how many spans were lost to slot contention.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Snapshot returns the recorded spans, oldest first. It is safe to call
// concurrently with Emit: a slot that does not hold the stream position the
// walk expects — still being written, dropped, or already overwritten — is
// skipped rather than returned torn or out of place.
func (r *Recorder) Snapshot() []Span {
	if r == nil || len(r.slots) == 0 {
		return nil
	}
	head := r.head.Load()
	n := min(head, uint64(len(r.slots)))
	out := make([]Span, 0, n)
	for pos := head - n; pos < head; pos++ {
		sl := &r.slots[pos%uint64(len(r.slots))]
		stable := 2*pos + 2
		if sl.seq.Load() != stable {
			continue
		}
		s := Span{Seq: pos + 1}
		s.ID = sl.id.Load()
		s.Ref = sl.ref.Load()
		s.Kind, s.Step, s.Batch, s.Name = unpackMeta(sl.meta.Load())
		s.Start = sl.start.Load()
		s.Dur = sl.dur.Load()
		s.FLOPs = sl.flops.Load()
		s.Bytes = sl.bytes.Load()
		if sl.seq.Load() != stable {
			continue // overwritten while reading
		}
		out = append(out, s)
	}
	return out
}
