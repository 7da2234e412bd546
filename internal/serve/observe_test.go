package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/metrics"
)

func testServerWithOptions(t *testing.T, opts Options) *Server {
	t.Helper()
	return serverWithEngineConfig(t, engine.Config{}, opts)
}

func classifyOnce(t *testing.T, url string) ClassifyResponse {
	t.Helper()
	body, _ := json.Marshal(ClassifyRequest{Pixels: make([]float32, dataset.Pixels)})
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("classify: status %d", resp.StatusCode)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestMetricsEndpoint scrapes /metrics after live traffic and round-trips
// the page through the exposition linter — the same check CI's smoke job
// runs against a real server process.
func TestMetricsEndpoint(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	cr := classifyOnce(t, srv.URL)
	if cr.RequestID == 0 {
		t.Error("classify response carries no request ID")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.PromContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("scrape fails lint: %v", err)
	}
	for _, want := range []string{
		"cbnet_requests_completed_total",
		"cbnet_plan_step_seconds_total",
		"cbnet_plan_step_gflops",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	classifyOnce(t, srv.URL)

	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var phases = map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ph, ok := ev["ph"].(string); ok {
			phases[ph] = true
		}
	}
	if !phases["X"] || !phases["M"] {
		t.Errorf("trace phases = %v, want X (spans) and M (metadata)", phases)
	}
}

func TestPprofGating(t *testing.T) {
	plain := httptest.NewServer(testServer(t))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without opt-in")
	}

	gated := httptest.NewServer(testServerWithOptions(t, Options{EnablePprof: true}))
	defer gated.Close()
	resp, err = http.Get(gated.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status %d", resp.StatusCode)
	}
}

// TestStructuredRequestLog checks the per-request slog line carries the
// correlation fields.
func TestStructuredRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := httptest.NewServer(testServerWithOptions(t, Options{Logger: logger}))
	defer srv.Close()
	cr := classifyOnce(t, srv.URL)

	var found bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) != nil {
			continue
		}
		if rec["msg"] != "classify" {
			continue
		}
		found = true
		if uint64(rec["requestId"].(float64)) != cr.RequestID {
			t.Errorf("logged requestId %v != response %d", rec["requestId"], cr.RequestID)
		}
		for _, k := range []string{"route", "batchSize", "class", "wallMs", "energyMj"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("log line missing %q: %s", k, line)
			}
		}
	}
	if !found {
		t.Errorf("no classify log line in %q", buf.String())
	}
}
