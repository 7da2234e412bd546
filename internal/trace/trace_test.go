package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestInternRoundTrip(t *testing.T) {
	a := Intern("conv1+relu1")
	b := Intern("fc2+sm")
	if a == b {
		t.Fatalf("distinct names interned to same id %d", a)
	}
	if Intern("conv1+relu1") != a {
		t.Fatal("re-interning is not stable")
	}
	if got := a.String(); got != "conv1+relu1" {
		t.Fatalf("resolved %q", got)
	}
	if got := NameID(0).String(); got != "?" {
		t.Fatalf("zero name resolved %q", got)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Emit(Span{ID: uint64(i + 1), Kind: KindPlanStep, Step: i, Batch: 16, Start: int64(100 * i), Dur: 50, FLOPs: 1000, Bytes: 100})
	}
	spans := r.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if s.ID != uint64(i+1) || s.Seq != uint64(i+1) || s.Step != i || s.Batch != 16 || s.Dur != 50 {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	if g := spans[0].GFLOPS(); g != 20 { // 1000 FLOPs / 50 ns
		t.Fatalf("GFLOPS = %v, want 20", g)
	}
	if ai := spans[0].Intensity(); ai != 10 {
		t.Fatalf("intensity = %v, want 10", ai)
	}
}

// TestSpanRatesDegradeToZero: a span with no positive duration or byte
// count — an untimed span, or a sum of spans that wrapped negative — reads
// 0 GFLOPS and 0 FLOP/B rather than a negative or infinite rate.
func TestSpanRatesDegradeToZero(t *testing.T) {
	for _, s := range []Span{
		{FLOPs: 1000, Dur: 0, Bytes: 0},
		{FLOPs: 1000, Dur: -5, Bytes: -5},
		{FLOPs: -1000, Dur: 50, Bytes: 100},
	} {
		if g := s.GFLOPS(); g != 0 {
			t.Errorf("%+v: GFLOPS() = %v, want 0", s, g)
		}
		if ai := s.Intensity(); ai != 0 {
			t.Errorf("%+v: Intensity() = %v, want 0", s, ai)
		}
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Emit(Span{ID: uint64(i)})
	}
	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.ID != uint64(6+i) || s.Seq != uint64(7+i) {
			t.Fatalf("span %d has ID %d seq %d, want %d and %d (oldest-first of the newest 4)", i, s.ID, s.Seq, 6+i, 7+i)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Emit(Span{ID: 1})
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v", got)
	}
	if r.Dropped() != 0 {
		t.Fatal("nil recorder counts drops")
	}
}

// TestConcurrentSnapshot exercises the seqlock under the race detector: one
// writer emitting continuously while readers snapshot. Every returned span
// must be internally consistent (ID encodes its payload).
func TestConcurrentSnapshot(t *testing.T) {
	r := NewRecorder(32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(1); i <= 20000; i++ {
			r.Emit(Span{ID: i, Start: int64(i * 3), Dur: int64(i * 7), FLOPs: int64(i * 11)})
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, s := range r.Snapshot() {
					if s.Start != int64(s.ID*3) || s.Dur != int64(s.ID*7) || s.FLOPs != int64(s.ID*11) {
						t.Errorf("torn span: %+v", s)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	<-done
}

// TestRecorderConcurrentWriters is the multi-writer contract the serve track
// relies on (every handler goroutine emits into one recorder): eight writers
// wrapping a small ring while readers snapshot. No returned span may be torn
// or out of place, and every Emit is either in the stream or counted dropped.
func TestRecorderConcurrentWriters(t *testing.T) {
	const writers, per, ring = 8, 5000, 64
	r := NewRecorder(ring)
	check := func(spans []Span) {
		var last uint64
		for _, s := range spans {
			if s.Kind != KindComplete || s.Step != 200 || s.Start != int64(s.ID*3) || s.Dur != int64(s.ID*7) {
				t.Errorf("torn span: %+v", s)
				return
			}
			if s.Seq <= last {
				t.Errorf("seq %d after %d: snapshot not in stream order", s.Seq, last)
				return
			}
			last = s.Seq
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := uint64(w*per + i + 1)
				r.Emit(Span{ID: id, Kind: KindComplete, Step: 200, Start: int64(id * 3), Dur: int64(id * 7)})
				if i%500 == 0 {
					check(r.Snapshot())
				}
			}
		}(w)
	}
	wg.Wait()
	spans := r.Snapshot()
	check(spans)
	// Quiescent: every claimed position either holds its span or was dropped,
	// and a drop leaves the slot to the span it collided with, so the last
	// revolution is all there but for the drops that fell in it.
	if head := r.head.Load(); head != writers*per {
		t.Fatalf("claimed %d positions, want %d", head, writers*per)
	}
	if dropped := int(r.Dropped()); len(spans) > ring || len(spans)+dropped < ring {
		t.Fatalf("%d spans + %d dropped do not cover the ring's %d slots", len(spans), dropped, ring)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("span %d recorded twice", s.ID)
		}
		seen[s.ID] = true
	}
}

// TestEmitDropsOnHeldSlot: a writer that finds its slot held by another
// (odd sequence) or already holding a later position drops its span and
// counts it; the slot's own span survives.
func TestEmitDropsOnHeldSlot(t *testing.T) {
	r := NewRecorder(2)
	r.Emit(Span{ID: 1})
	r.slots[1].seq.Store(2*1 + 1) // a writer of position 1 is inside slot 1
	r.Emit(Span{ID: 2})
	if r.Dropped() != 1 {
		t.Fatalf("dropped %d, want 1", r.Dropped())
	}
	r.slots[1].seq.Store(0)
	// Position 2 wraps onto slot 0, which a faster writer of position 4
	// already filled.
	r.slots[0].seq.Store(2*4 + 2)
	r.Emit(Span{ID: 3})
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d, want 2", r.Dropped())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("snapshot returned spans out of place: %+v", got)
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorder(64)
	name := Intern("alloc-test")
	allocs := testing.AllocsPerRun(100, func() {
		r.Emit(Span{ID: 1, Kind: KindPlanStep, Name: name, Start: Now(), Dur: 10, FLOPs: 100, Bytes: 10})
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v per call, want 0", allocs)
	}
}

// BenchmarkRecorderEmit prices one Emit: serial is the engine worker's case
// (one writer per ring), parallel the serve track's (every handler goroutine
// claims positions in one ring). Run the parallel case with -cpu 2 or more.
func BenchmarkRecorderEmit(b *testing.B) {
	name := Intern("bench")
	sp := Span{ID: 1, Kind: KindComplete, Name: name, Step: 200, Batch: 4, Start: 1, Dur: 10}
	b.Run("serial", func(b *testing.B) {
		r := NewRecorder(1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Emit(sp)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		r := NewRecorder(1024)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				r.Emit(sp)
			}
		})
		b.ReportMetric(float64(r.Dropped())/float64(b.N), "dropped/op")
	})
}

func TestWriteChrome(t *testing.T) {
	r := NewRecorder(8)
	name := Intern("fc1+relu")
	r.Emit(Span{ID: 7, Ref: 3, Kind: KindPlanStep, Name: name, Step: 2, Batch: 16, Start: 1500, Dur: 2500, FLOPs: 5000, Bytes: 500})
	r.Emit(Span{ID: 3, Kind: KindExecute, Name: Intern("hard/execute"), Batch: 16, Start: 1000, Dur: 4000})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []Track{{Name: "worker0", Spans: r.Snapshot()}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// thread_name metadata + 2 spans, sorted by start time.
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" || doc.TraceEvents[0].Args["name"] != "worker0" {
		t.Fatalf("metadata event %+v", doc.TraceEvents[0])
	}
	if doc.TraceEvents[1].Name != "hard/execute" || doc.TraceEvents[1].TS != 1.0 {
		t.Fatalf("first span %+v", doc.TraceEvents[1])
	}
	step := doc.TraceEvents[2]
	if step.Name != "fc1+relu" || step.Cat != "plan-step" || step.Dur != 2.5 {
		t.Fatalf("step span %+v", step)
	}
	if step.Args["gflops"].(float64) != 2.0 { // 5000 FLOPs / 2500 ns
		t.Fatalf("gflops arg %v", step.Args["gflops"])
	}
}

func TestPackMetaClamps(t *testing.T) {
	kind, step, batch, name := unpackMeta(packMeta(KindQueue, 1<<20, 1<<20, NameID(5)))
	if kind != KindQueue || step != 0xFFFF || batch != 0xFFFF || name != 5 {
		t.Fatalf("unpacked %v %d %d %d", kind, step, batch, name)
	}
}
