package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/flight"
	"cbnet/internal/metrics"
	"cbnet/internal/rng"
)

// serverWithEngineConfig builds a server around an untrained pipeline with
// full control over the engine config — chaos injectors, degradation
// ladders, worker counts.
func serverWithEngineConfig(t testing.TB, cfg engine.Config, opts Options) *Server {
	t.Helper()
	pipe := testPipeline()
	s := NewWithOptions(pipe, engine.New(pipe, cfg), device.RaspberryPi4(), dataset.MNIST, opts)
	t.Cleanup(s.Close)
	return s
}

func classifyWithHeaders(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	img := dataset.RenderSample(dataset.MNIST, 3, false, rng.New(2))
	body, _ := json.Marshal(ClassifyRequest{Pixels: img})
	req, err := http.NewRequest(http.MethodPost, url+"/classify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDeadlineHeader504 pins the per-request deadline path: with inference
// artificially slowed far past the deadline the client asked for, the
// request times out inside the engine and the handler answers 504.
func TestDeadlineHeader504(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetLatency("", 300*time.Millisecond)
	s := serverWithEngineConfig(t, engine.Config{Workers: 1, Fault: inj}, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp := classifyWithHeaders(t, srv.URL, map[string]string{DeadlineHeader: "20"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("504 body not JSON: %v", err)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "deadline") {
		t.Fatalf("504 body %v does not mention the deadline", m)
	}
}

// TestDefaultDeadline504 applies the same timeout through the server-wide
// default instead of a header.
func TestDefaultDeadline504(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetLatency("", 300*time.Millisecond)
	s := serverWithEngineConfig(t, engine.Config{Workers: 1, Fault: inj},
		Options{DefaultDeadline: 20 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp := classifyWithHeaders(t, srv.URL, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 from DefaultDeadline", resp.StatusCode)
	}

	// The default is advertised on /info in milliseconds.
	ir, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer ir.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(ir.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.DefaultDeadlineMS != 20 {
		t.Fatalf("/info defaultDeadlineMs = %v, want 20", info.DefaultDeadlineMS)
	}
}

// TestInvalidDeadlineHeader400 rejects malformed and non-positive deadline
// headers before any engine work happens.
func TestInvalidDeadlineHeader400(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	for _, bad := range []string{"nope", "-5", "0", "1e999"} {
		resp := classifyWithHeaders(t, srv.URL, map[string]string{DeadlineHeader: bad})
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("header %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	// A generous valid header still classifies.
	resp := classifyWithHeaders(t, srv.URL, map[string]string{DeadlineHeader: "30000"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid header: status %d, want 200", resp.StatusCode)
	}
}

// TestDegradeTransitionsSurfaceEverywhere pins the observability contract
// for ladder moves: a transition lands in the flight recorder, on /metrics
// (still passing the exposition linter), in /stats, and the ladder itself
// on /info.
func TestDegradeTransitionsSurfaceEverywhere(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{
		Workers: 1,
		Degrade: engine.DegradeConfig{Enabled: true, Interval: time.Hour},
	}, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()
	classifyOnce(t, srv.URL)

	s.Engine.SetDegradeLevel(1)

	// /info advertises the ladder.
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	var info InfoResponse
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.DegradeLadder) < 3 {
		t.Fatalf("/info degradeLadder %v, want the full ladder", info.DegradeLadder)
	}

	// The transition is a flight event carrying the destination rung.
	resp, err = http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	err = json.NewDecoder(resp.Body).Decode(&dump)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range dump.Events {
		if e.Kind == "degrade" && e.Status == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no degrade event with status 1 in flight dump (%d events)", len(dump.Events))
	}

	// /metrics exposes the level gauge and transition counter, lint-clean.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("scrape fails lint with degrade series: %v", err)
	}
	page := string(raw)
	for _, want := range []string{
		"cbnet_degrade_level 1",
		"cbnet_degrade_transitions_total 1",
		"cbnet_requests_shed_total",
		"cbnet_requests_deadline_expired_total",
		"cbnet_infer_failures_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// /stats carries the degrade snapshot.
	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	deg, ok := stats["degrade"].(map[string]any)
	if !ok {
		t.Fatalf("/stats missing degrade snapshot: %v", stats)
	}
	if lvl, _ := deg["level"].(float64); lvl != 1 {
		t.Fatalf("/stats degrade level %v, want 1", deg["level"])
	}
}

// TestShedRung503 drives the ladder to its shed rung and checks requests
// are refused with 503 + Retry-After instead of queued.
func TestShedRung503(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{
		Workers: 1,
		Degrade: engine.DegradeConfig{Enabled: true, Interval: time.Hour},
	}, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	ladder := s.Engine.DegradeLadder()
	s.Engine.SetDegradeLevel(len(ladder) - 1) // shed rung is always last
	resp := classifyWithHeaders(t, srv.URL, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d at shed rung, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}

	s.Engine.SetDegradeLevel(0)
	resp = classifyWithHeaders(t, srv.URL, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after recovery, want 200", resp.StatusCode)
	}
}
