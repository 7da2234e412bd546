package metrics

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// writeFixtureExposition renders a deterministic document exercising every
// writer: counters, gauges, vectors, and a scaled histogram.
func writeFixtureExposition(w *PromWriter) {
	w.Counter("cbnet_requests_total", "Requests admitted.", nil, 12345)
	w.CounterVec("cbnet_route_requests_total", "Requests per route.", []VecSample{
		{Labels: Labels{L("route", "easy")}, Value: 9000},
		{Labels: Labels{L("route", "hard")}, Value: 3345},
	})
	w.Gauge("cbnet_uptime_seconds", "Seconds since start.", nil, 42.5)
	w.GaugeVec("cbnet_queue_depth", "Waiting requests per route.", []VecSample{
		{Labels: Labels{L("route", "easy")}, Value: 3},
		{Labels: Labels{L("route", "hard")}, Value: 0},
	})

	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	// Observations are milliseconds; exposition is seconds.
	w.HistogramVec("cbnet_request_duration_seconds", "End-to-end latency.", []HistSample{
		{Labels: Labels{L("route", "easy")}, Hist: h, Scale: 1e-3},
	})
}

func TestPromGolden(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	writeFixtureExposition(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

func TestPromRoundTripLint(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	writeFixtureExposition(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("own exposition fails lint: %v", err)
	}
}

// TestHistogramVecScaling pins the unit-rescaling contract the engine
// relies on: histograms observed in milliseconds are exported in base
// seconds. Bounds and _sum scale; counts never do; +Inf stays +Inf.
func TestHistogramVecScaling(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, ms := range []float64{0.5, 5, 50, 500} {
		h.Observe(ms)
	}
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.HistogramVec("d_seconds", "h", []HistSample{
		{Labels: Labels{L("route", "easy")}, Hist: h, Scale: 1e-3},
	})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`d_seconds_bucket{route="easy",le="0.001"} 1`,
		`d_seconds_bucket{route="easy",le="0.01"} 2`,
		`d_seconds_bucket{route="easy",le="0.1"} 3`,
		`d_seconds_bucket{route="easy",le="+Inf"} 4`,
		`d_seconds_sum{route="easy"} 0.5555`,
		`d_seconds_count{route="easy"} 4`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	if err := LintExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Errorf("scaled histogram fails lint: %v", err)
	}

	// Zero Scale means unscaled, not zeroed-out.
	buf.Reset()
	w = NewPromWriter(&buf)
	w.HistogramVec("d_ms", "h", []HistSample{{Hist: h}})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`d_ms_bucket{le="1"} 1`,
		`d_ms_sum 555.5`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("unscaled exposition missing %q:\n%s", want, buf.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Gauge("m", "h", Labels{L("k", "a\\b\"c\nd")}, 1)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	want := `m{k="a\\b\"c\nd"} 1` + "\n"
	if got := strings.SplitAfterN(buf.String(), "\n", 3)[2]; got != want {
		t.Errorf("escaped sample = %q, want %q", got, want)
	}
	if err := LintExposition(strings.NewReader(buf.String())); err != nil {
		t.Errorf("escaped exposition fails lint: %v", err)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		1:      "1",
		42.5:   "42.5",
		1e-3:   "0.001",
		2.5e-4: "0.00025",
	}
	for v, want := range cases {
		if got := formatValue(v); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"missing value":        "cbnet_x\n",
		"bad name":             "9bad 1\n",
		"bad label name":       `m{9l="v"} 1` + "\n",
		"unquoted label":       `m{l=v} 1` + "\n",
		"bad value":            "m zzz\n",
		"bad type":             "# TYPE m weird\n",
		"le not increasing":    "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n",
		"bucket not monotonic": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n",
		"missing +Inf":         "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n",
		"count mismatch":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\n",
	}
	for name, doc := range cases {
		if err := LintExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted %q", name, doc)
		}
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Inc()
	g.Inc()
	g.Add(-1)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
	g.Add(-3)
	if g.Value() != -2 {
		t.Fatalf("gauge = %d, want -2", g.Value())
	}
}
