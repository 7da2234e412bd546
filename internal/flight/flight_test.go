package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cbnet/internal/trace"
)

// TestDumpListsServeTrack: a dump's events are the serve track's spans, in
// stream order under the JSON keys operators and CI read: tMs is when the
// outcome was stamped (the span's end), status the span's Step, route the
// interned name, seq the stream position — so a wrapped ring shows as a gap
// between the count and the first seq.
func TestDumpListsServeTrack(t *testing.T) {
	events := trace.NewRecorder(4)
	rec := New("", events)
	route := trace.Intern("easy")
	events.Emit(trace.Span{ID: 1, Kind: trace.KindAdmit, Start: 500})
	events.Emit(trace.Span{ID: 1, Kind: trace.KindAdmit, Start: 1_000_000})
	events.Emit(trace.Span{ID: 1, Kind: trace.KindComplete, Name: route, Step: 200, Batch: 4, Start: 1_000_000, Dur: 2_500_000})
	events.Emit(trace.Span{ID: 2, Kind: trace.KindAbandon, Step: 503, Start: 4_000_000})
	events.Emit(trace.Span{Kind: trace.KindBreaker, Name: route, Step: 1, Start: 5_000_000})

	raw, err := json.Marshal(rec.Snapshot("manual"))
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Trigger       string           `json:"trigger"`
		Events        []map[string]any `json:"events"`
		DroppedEvents *uint64          `json:"droppedEvents"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if d.Trigger != "manual" || d.DroppedEvents == nil || *d.DroppedEvents != 0 {
		t.Fatalf("dump header: %s", raw)
	}
	want := []map[string]any{
		{"seq": 2.0, "tMs": 1.0, "kind": "admit", "requestId": 1.0},
		{"seq": 3.0, "tMs": 3.5, "kind": "complete", "requestId": 1.0, "route": "easy", "status": 200.0, "durMs": 2.5, "batchSize": 4.0},
		{"seq": 4.0, "tMs": 4.0, "kind": "abandon", "requestId": 2.0, "status": 503.0},
		{"seq": 5.0, "tMs": 5.0, "kind": "breaker", "route": "easy", "status": 1.0},
	}
	if !reflect.DeepEqual(d.Events, want) {
		t.Fatalf("events\n got %v\nwant %v", d.Events, want)
	}
}

// TestTracklessRecorderDumpsAnEmptyList: without a serve track (the policy
// tests below) a dump still carries an events array, not null.
func TestTracklessRecorderDumpsAnEmptyList(t *testing.T) {
	if d := New("", nil).Snapshot("manual"); d.Trigger != "manual" || d.Events == nil || len(d.Events) != 0 || d.DroppedEvents != 0 {
		t.Fatalf("trackless recorder dumped %+v", d)
	}
}

func TestBurstDetectorTripsAndDumps(t *testing.T) {
	dir := t.TempDir()
	events := trace.NewRecorder(16)
	rec := New(dir, events)
	rec.SetContext(func() map[string]any {
		return map[string]any{"queueDepth": 42}
	})
	var dumped *Dump
	rec.onDump = func(d *Dump) { dumped = d }

	base := trace.Now()
	for i := 0; i < burstRejects; i++ {
		events.Emit(trace.Span{ID: uint64(i), Kind: trace.KindReject, Step: 503, Start: base})
		rec.NoteReject(base + int64(i)*int64(time.Millisecond))
	}
	if dumped == nil {
		t.Fatalf("%d rejects within %v did not trigger a dump", burstRejects, burstWindow)
	}
	if !strings.Contains(dumped.Trigger, "503-burst") {
		t.Fatalf("trigger %q, want 503-burst", dumped.Trigger)
	}
	if dumped.Context["queueDepth"] != 42 {
		t.Fatalf("context not attached: %v", dumped.Context)
	}
	if len(dumped.Events) != burstRejects {
		t.Fatalf("dump carries %d events, want %d", len(dumped.Events), burstRejects)
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly 1 dump file, got %v (err %v)", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump file is not valid JSON: %v", err)
	}
	if d.Trigger != dumped.Trigger || len(d.Events) != burstRejects {
		t.Fatalf("dump file mismatch: %+v", d)
	}
}

func TestBurstBelowThresholdDoesNotTrip(t *testing.T) {
	rec := New("", nil)
	tripped := false
	rec.onDump = func(*Dump) { tripped = true }
	// One reject short of a burst in the window, then as many again spaced
	// far apart.
	base := int64(0)
	for i := 0; i < burstRejects-1; i++ {
		rec.NoteReject(base + int64(i)*int64(time.Millisecond))
	}
	for i := 0; i < burstRejects-1; i++ {
		rec.NoteReject(base + int64(10+i*10)*int64(time.Second))
	}
	if tripped {
		t.Fatal("burst detector tripped below threshold")
	}
}

func TestCooldownSuppressesRepeatDumps(t *testing.T) {
	rec := New("", nil)
	dumps := 0
	rec.onDump = func(*Dump) { dumps++ }
	rec.Trip("slo trip one")
	rec.Trip("slo trip two")
	if dumps != 1 {
		t.Fatalf("got %d dumps, want 1 (cooldown)", dumps)
	}
	// The suppressed trigger must still surface on snapshots.
	d := rec.Snapshot("manual")
	if d.LastTrigger != "slo trip two" {
		t.Fatalf("lastTrigger %q, want the suppressed trip", d.LastTrigger)
	}
}

func TestLogBufferTee(t *testing.T) {
	rec := New("", nil)
	h := rec.Logs().Wrap(slog.NewTextHandler(io.Discard, nil))
	log := slog.New(h).With("route", "easy")
	for i := 0; i < logLines+2; i++ {
		log.Info("served", "requestId", i)
	}
	tail := rec.Logs().Tail()
	if len(tail) != logLines {
		t.Fatalf("tail holds %d lines, want %d", len(tail), logLines)
	}
	if newest := tail[logLines-1]; !strings.HasSuffix(newest, fmt.Sprintf("requestId=%d", logLines+1)) || !strings.Contains(newest, "route=easy") {
		t.Fatalf("newest line malformed: %q", newest)
	}
	if !strings.HasSuffix(tail[0], "requestId=2") {
		t.Fatalf("oldest retained line should be requestId=2: %q", tail[0])
	}
	d := rec.Snapshot("manual")
	if len(d.Logs) != logLines {
		t.Fatalf("dump carries %d log lines, want %d", len(d.Logs), logLines)
	}
}

func TestLogBufferGroups(t *testing.T) {
	rec := New("", nil)
	h := rec.Logs().Wrap(slog.NewTextHandler(io.Discard, nil))
	slog.New(h).WithGroup("engine").Info("drained", "inflight", 0)
	tail := rec.Logs().Tail()
	if len(tail) != 1 || !strings.Contains(tail[0], "engine.inflight=0") {
		t.Fatalf("grouped attr not rendered: %v", tail)
	}
}
