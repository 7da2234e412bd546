package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbnet/internal/dataset"
	"cbnet/internal/flight"
	"cbnet/internal/metrics"
	"cbnet/internal/rng"
	"cbnet/internal/trace"
)

// TestErrorPathsCarryRequestID covers the satellite fix: every error
// response (400 bad JSON, 400 bad pixels, 413 oversized, 503 shutdown)
// must carry a non-zero requestId in its JSON body, and IDs must keep
// advancing across failures.
func TestErrorPathsCarryRequestID(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	post := func(body []byte) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("error body not JSON: %v", err)
		}
		return resp.StatusCode, m
	}

	var lastID float64
	check := func(status, wantStatus int, m map[string]any) {
		t.Helper()
		if status != wantStatus {
			t.Fatalf("status %d, want %d (%v)", status, wantStatus, m)
		}
		id, ok := m["requestId"].(float64)
		if !ok || id <= 0 {
			t.Fatalf("missing/zero requestId in %v", m)
		}
		if id <= lastID {
			t.Fatalf("requestId %v did not advance past %v", id, lastID)
		}
		lastID = id
	}

	status, m := post([]byte(`{not json`))
	check(status, http.StatusBadRequest, m)

	status, m = post([]byte(`{"pixels":[0.5,0.5]}`))
	check(status, http.StatusBadRequest, m)

	huge, _ := json.Marshal(ClassifyRequest{Pixels: make([]float32, 1<<19)}) // ~4 MiB body
	status, m = post(huge)
	check(status, http.StatusRequestEntityTooLarge, m)

	s.Close()
	img := dataset.RenderSample(dataset.MNIST, 6, false, rng.New(9))
	body, _ := json.Marshal(ClassifyRequest{Pixels: img})
	status, m = post(body)
	check(status, http.StatusServiceUnavailable, m)
}

func TestSLOEndpoint(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var verdict SLOResponse
	if err := json.NewDecoder(resp.Body).Decode(&verdict); err != nil {
		t.Fatalf("/slo not valid JSON: %v", err)
	}
	if verdict.Overall != "ok" {
		t.Fatalf("overall %q after one clean request, want ok", verdict.Overall)
	}
	names := map[string]bool{}
	for _, o := range verdict.Objectives {
		names[o.Objective] = true
		if len(o.Windows) != 3 {
			t.Fatalf("objective %s has %d windows, want 3", o.Objective, len(o.Windows))
		}
		if o.BudgetRemaining > 1 || o.Target <= 0 {
			t.Fatalf("bad objective snapshot: %+v", o)
		}
		for _, w := range o.Windows {
			if w.Tripped {
				t.Fatalf("window %s/%s tripped on clean traffic", o.Objective, w.Window)
			}
		}
	}
	if !names["availability"] || !names["latency"] {
		t.Fatalf("objectives %v, want availability+latency", names)
	}
}

// TestMetricsIncludeSLOAndEnergy asserts the scrape carries the new series
// (still passing the exposition linter) and that served traffic yields a
// non-zero projected joules total for at least one (route,plan,step,device).
func TestMetricsIncludeSLOAndEnergy(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("scrape fails lint with SLO/energy series: %v", err)
	}
	page := string(raw)
	for _, want := range []string{
		"cbnet_slo_budget_remaining{slo=\"availability\"}",
		"cbnet_slo_budget_remaining{slo=\"latency\"}",
		"cbnet_slo_burn_rate{slo=\"availability\",window=\"5m\"}",
		"cbnet_slo_window_violations_total",
		"cbnet_energy_joules_total{device=\"RaspberryPi4\"",
		"cbnet_energy_joules_per_image{device=\"GCI\"",
		"cbnet_energy_seconds_per_image",
		"route=\"easy\"",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	if strings.Contains(page, "cbnet_plan_step_") {
		t.Error("scrape still carries a cbnet_plan_step_ family")
	}

	// At least one energy counter must be non-zero once traffic flowed.
	nonzero := false
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "cbnet_energy_joules_total{") {
			continue
		}
		parts := strings.Fields(line)
		v, err := strconv.ParseFloat(parts[len(parts)-1], 64)
		if err == nil && v > 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Error("all cbnet_energy_joules_total samples are zero after traffic")
	}
}

// TestFlightEndpointCorrelates drives good and bad traffic and checks the
// /debug/flight dump ties lifecycle events to the request IDs the client
// saw, alongside queue gauges and SLO state.
func TestFlightEndpointCorrelates(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	cr := classifyOnce(t, srv.URL)
	// One failing request too.
	resp, err := http.Post(srv.URL+"/classify", "application/json", strings.NewReader(`{bad`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump flight.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("/debug/flight not valid JSON: %v", err)
	}
	kinds := map[string]bool{}
	ids := map[uint64]bool{}
	for _, e := range dump.Events {
		kinds[e.Kind] = true
		ids[e.RequestID] = true
	}
	if !kinds["admit"] || !kinds["complete"] || !kinds["error"] {
		t.Fatalf("event kinds %v, want admit+complete+error", kinds)
	}
	if !ids[cr.RequestID] {
		t.Fatalf("dump events missing classified requestId %d", cr.RequestID)
	}
	for _, key := range []string{"stats", "slo", "spans"} {
		if _, ok := dump.Context[key]; !ok {
			t.Fatalf("dump context missing %q: %v", key, dump.Context)
		}
	}
}

// TestRejectBurstAutoDumpsFlight: a burst of 503s must trip the flight
// recorder's burst detector and write a correlated dump file to FlightDir.
func TestRejectBurstAutoDumpsFlight(t *testing.T) {
	dir := t.TempDir()
	s := testServerWithOptions(t, Options{FlightDir: dir})
	srv := httptest.NewServer(s)
	defer srv.Close()
	classifyOnce(t, srv.URL)

	// Closing the engine makes every subsequent classify an instant 503 —
	// a deterministic burst.
	s.Close()
	img := dataset.RenderSample(dataset.MNIST, 1, false, rng.New(4))
	body, _ := json.Marshal(ClassifyRequest{Pixels: img})
	for i := 0; i < 12; i++ {
		resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
		}
	}

	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no flight dump written after 503 burst (err %v)", err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump file not valid JSON: %v", err)
	}
	if !strings.Contains(dump.Trigger, "503-burst") {
		t.Fatalf("trigger %q, want 503-burst", dump.Trigger)
	}
	rejects := 0
	for _, e := range dump.Events {
		if e.Kind == "reject" && e.Status == http.StatusServiceUnavailable {
			rejects++
		}
	}
	if rejects < 10 {
		t.Fatalf("dump holds %d reject events, want >=10", rejects)
	}

	// The on-demand endpoint reports the auto-dump's trigger.
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var live flight.Dump
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(live.LastTrigger, "503-burst") {
		t.Fatalf("live dump lastTrigger %q, want 503-burst", live.LastTrigger)
	}
}

// TestAbandonIsNotAnOverload: a client that hangs up is answered 503 and
// counted against availability, but it is filed as an abandon, not as an
// admission-control reject — a dozen hang-ups inside a second used to
// auto-dump a "503-burst" and burn the dump cooldown. Twelve bad responses
// out of 32 may trip the availability objective; they must not trip the
// burst detector.
func TestAbandonIsNotAnOverload(t *testing.T) {
	dir := t.TempDir()
	s := testServerWithOptions(t, Options{FlightDir: dir})
	img := dataset.RenderSample(dataset.MNIST, 1, false, rng.New(4))
	body, _ := json.Marshal(ClassifyRequest{Pixels: img})
	gone, hangUp := context.WithCancel(context.Background())
	hangUp()
	for i := 0; i < 32; i++ {
		ctx, want := context.Background(), http.StatusOK
		if i >= 20 {
			ctx, want = gone, http.StatusServiceUnavailable
		}
		req := httptest.NewRequest("POST", "/classify", bytes.NewReader(body)).WithContext(ctx)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Fatalf("request %d: status %d, want %d", i, rec.Code, want)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var d flight.Dump
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if strings.Contains(d.Trigger, "503-burst") {
			t.Fatalf("12 hang-ups wrote a dump triggered by %q", d.Trigger)
		}
	}
	dump := s.flight.Snapshot("test")
	if strings.Contains(dump.LastTrigger, "503-burst") {
		t.Fatalf("lastTrigger %q after 12 hang-ups, want no 503-burst", dump.LastTrigger)
	}
	kinds := map[string]int{}
	for _, e := range dump.Events {
		if e.Status == http.StatusServiceUnavailable {
			kinds[e.Kind]++
		}
	}
	if kinds["abandon"] != 12 || kinds["reject"] != 0 {
		t.Fatalf("503 events by kind %v, want 12 abandon and no reject", kinds)
	}
	for _, o := range s.sloMon.Snapshot(time.Now()) {
		if o.Objective == "availability" && o.Windows[0].Bad != 12 {
			t.Fatalf("availability saw %d bad responses, want 12", o.Windows[0].Bad)
		}
	}
}

// TestReplyLatencyIsTheCompleteSpan: the reply's wallLatencyMs is not a
// second measurement — it is the duration of the request's complete span on
// the serve track (in the reply's whole microseconds), the span names the
// route the reply names, and /debug/trace draws that track first.
func TestReplyLatencyIsTheCompleteSpan(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	cr := classifyOnce(t, srv.URL)

	var complete, admit *trace.Span
	for _, sp := range s.events.Snapshot() {
		if sp.ID != cr.RequestID {
			continue
		}
		switch sp.Kind {
		case trace.KindComplete:
			complete = &sp
		case trace.KindAdmit:
			admit = &sp
		}
	}
	if complete == nil || admit == nil {
		t.Fatalf("serve track holds no admit+complete pair for request %d", cr.RequestID)
	}
	if got := float64(time.Duration(complete.Dur).Microseconds()) / 1e3; got != cr.WallLatencyMS {
		t.Errorf("wallLatencyMs %v, complete span lasted %v ms", cr.WallLatencyMS, got)
	}
	if complete.Name.String() != cr.Route || complete.Step != http.StatusOK || complete.Batch != cr.BatchSize {
		t.Errorf("complete span %+v (route %s) does not describe reply %+v", *complete, complete.Name, cr)
	}
	if admit.Start != complete.Start || admit.Dur != 0 {
		t.Errorf("admit span %+v does not mark the start of complete span %+v", *admit, *complete)
	}
	if wait := float64(cr.QueueWaitMS); wait > cr.WallLatencyMS {
		t.Errorf("queueWaitMs %v exceeds wallLatencyMs %v on one clock", wait, cr.WallLatencyMS)
	}

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TID  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if first := doc.TraceEvents[0]; first.Ph != "M" || first.TID != 0 || first.Args["name"] != "serve" {
		t.Fatalf("first track is %+v, want the serve track", first)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.TID == 0 && ev.Cat == "complete" && ev.Args["id"] == float64(cr.RequestID) {
			found = ev.Name == cr.Route && ev.Args["status"] == float64(http.StatusOK) && ev.Dur == float64(complete.Dur)/1e3
		}
	}
	if !found {
		t.Errorf("serve track of /debug/trace has no complete event for request %d matching its span", cr.RequestID)
	}
}
