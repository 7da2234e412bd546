package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/metrics"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
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

// routeFault is a FaultInjector for steering traffic without a crowd:
// forward passes on the routes in hold wait until release is closed, so a
// handful of requests fills their queues, and every batch on stuck fails.
type routeFault struct {
	release chan struct{}
	hold    map[string]bool
	stuck   string
}

func (f *routeFault) BeforeInfer(route string, _ *tensor.Tensor) error {
	if route == f.stuck {
		return errors.New("route is stuck")
	}
	if f.hold[route] {
		<-f.release
	}
	return nil
}

// spillConfig is an engine whose queues fill with two requests: one in the
// forward pass and one queued — half of QueueDepth 2, the spill mark.
func spillConfig(fault engine.FaultInjector) engine.Config {
	return engine.Config{
		Workers: 1, MaxBatch: 1, QueueDepth: 2,
		Fault: fault,
	}
}

// fillRoute posts img, which the engine must place on the named held route,
// until that route's queue sits at its spill mark (see spillConfig). The
// returned function waits for the answers, which arrive once the test
// releases the hold, and requires them all to be 200.
func fillRoute(t *testing.T, s *Server, url, route string, img []float32) (wait func()) {
	t.Helper()
	body, err := json.Marshal(ClassifyRequest{Pixels: img})
	if err != nil {
		t.Fatal(err)
	}
	stat := func() engine.RouteSnapshot {
		for _, r := range s.Engine.Stats().Routes {
			if r.Route == route {
				return r
			}
		}
		t.Fatalf("no route %q", route)
		return engine.RouteSnapshot{}
	}
	const want = 2
	codes := make(chan int, want)
	for i := int64(1); i <= want; i++ {
		go func() {
			resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
		// Placed, and pulled off the queue as far as it is going to be: the
		// next request must find the queue as this one left it.
		settled := func() bool {
			r := stat()
			return r.InFlight == i && int64(r.QueueDepth) == i-1
		}
		for start := time.Now(); !settled(); time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("request %d never settled on route %s: %+v", i, route, stat())
			}
		}
	}
	return func() {
		t.Helper()
		for i := 0; i < want; i++ {
			if code := <-codes; code != http.StatusOK {
				t.Errorf("request held on %s answered %d, want 200", route, code)
			}
		}
	}
}

// TestSpillSurfacesEverywhere: with hard's queue at its mark, the next hard
// image is answered by easy, and every surface says so in one vocabulary —
// the reply names the route and still carries the score, /info and /stats
// list the ladder in walk order, /stats and /metrics count the diversion,
// and the exposition stays lint-clean.
func TestSpillSurfacesEverywhere(t *testing.T) {
	fault := &routeFault{release: make(chan struct{}), hold: map[string]bool{"hard": true}}
	s, _ := serverWithPrunedRung(t, spillConfig(fault))
	srv := httptest.NewServer(s)
	defer srv.Close()

	hard := serveHardImage(t, 1)
	wait := fillRoute(t, s, srv.URL, "hard", hard)
	resp, cr := postPixels(t, srv.URL, hard)
	if resp.StatusCode != http.StatusOK || cr.Route != "easy" {
		t.Fatalf("overflow request: status %d route %q, want 200 from easy", resp.StatusCode, cr.Route)
	}
	if _, h := engine.RouteOf(hard); cr.Hardness != h {
		t.Fatalf("overflow reply hardness %v, want the score %v", cr.Hardness, h)
	}
	close(fault.release)
	wait()

	wantLadder := []string{"hard", "easy", "pruned"}
	var info InfoResponse
	getJSON(t, srv.URL+"/info", &info)
	if !slices.Equal(info.DegradeLadder, wantLadder) {
		t.Fatalf("/info degradeLadder %v, want %v", info.DegradeLadder, wantLadder)
	}
	var stats map[string]any
	getJSON(t, srv.URL+"/stats", &stats)
	if got := fmt.Sprint(stats["ladder"]); got != "[hard easy pruned]" {
		t.Fatalf("/stats ladder %v, want %v", stats["ladder"], wantLadder)
	}
	if stats["diverted"] != 1.0 || stats["shed"] != 0.0 {
		t.Fatalf("/stats diverted %v shed %v, want 1 and 0", stats["diverted"], stats["shed"])
	}
	if _, ok := stats["degrade"]; ok {
		t.Fatal("/stats still carries a degrade object")
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.LintExposition(bytes.NewReader(raw)); err != nil {
		t.Fatalf("scrape fails lint: %v", err)
	}
	page := string(raw)
	for _, want := range []string{
		"cbnet_requests_diverted_total 1",
		"cbnet_requests_shed_total 0",
		"cbnet_requests_deadline_expired_total",
		"cbnet_infer_failures_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// getJSON decodes one GET endpoint into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// saturate fills every route of a two-route server to its spill mark and
// returns the server with the function that lets the held requests go.
func saturate(t *testing.T) (s *Server, url string, release func()) {
	t.Helper()
	fault := &routeFault{release: make(chan struct{}), hold: map[string]bool{"hard": true, "easy": true}}
	s = serverWithEngineConfig(t, spillConfig(fault), Options{})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	waitHard := fillRoute(t, s, srv.URL, "hard", serveHardImage(t, 1))
	waitEasy := fillRoute(t, s, srv.URL, "easy", serveEasyImage(2))
	return s, srv.URL, func() {
		t.Helper()
		close(fault.release)
		waitHard()
		waitEasy()
	}
}

// TestShedRung503: when no route has room the request is refused with 503 +
// Retry-After instead of queued, and served again the moment one has.
func TestShedRung503(t *testing.T) {
	s, url, release := saturate(t)
	resp := classifyWithHeaders(t, url, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with every route at its mark, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 missing Retry-After")
	}
	if st := s.Engine.Stats(); st.Shed != 1 || st.Rejected != 0 {
		t.Fatalf("shed %d rejected %d, want 1/0", st.Shed, st.Rejected)
	}

	release()
	resp = classifyWithHeaders(t, url, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after the queues drained, want 200", resp.StatusCode)
	}
}
