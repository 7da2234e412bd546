package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/flight"
	"cbnet/internal/resilience"
	"cbnet/internal/rng"
)

// servePoisonPixel is the bit-exact pixel value armed as a poison pill in
// these tests.
const servePoisonPixel = float32(0.77777)

func serveEasyImage(seed uint64) []float32 {
	return dataset.RenderSample(dataset.MNIST, int(seed)%dataset.NumClasses, false, rng.New(seed))
}

// serveHardImage scans seeds for a degraded sample that deterministically
// scores hard under the default threshold, so breaker tests control which
// route their requests land on.
func serveHardImage(t *testing.T, seed uint64) []float32 {
	t.Helper()
	for s := seed; s < seed+1000; s++ {
		img := dataset.RenderSample(dataset.MNIST, int(s)%dataset.NumClasses, true, rng.New(s))
		if name, _ := engine.RouteOf(img); name == engine.RouteHard {
			return img
		}
	}
	t.Fatal("no hard-scoring image in 1000 seeds")
	return nil
}

// serveEasyImages is serveHardImage's mirror: n clean renders from distinct
// seeds, scanning up from seed, that score easy once mark (if not nil) has
// edited them — so that a test can keep a whole batch on the easy route.
func serveEasyImages(t *testing.T, seed uint64, n int, mark func([]float32)) [][]float32 {
	t.Helper()
	var out [][]float32
	for s := seed; len(out) < n && s < seed+uint64(n)+1000; s++ {
		img := serveEasyImage(s)
		if mark != nil {
			mark(img)
		}
		if name, _ := engine.RouteOf(img); name == engine.RouteEasy {
			out = append(out, img)
		}
	}
	if len(out) < n {
		t.Fatalf("%d of %d easy-scoring images in %d seeds", len(out), n, n+1000)
	}
	return out
}

func postPixels(t *testing.T, url string, pixels []float32) (*http.Response, ClassifyResponse) {
	t.Helper()
	body, err := json.Marshal(ClassifyRequest{Pixels: pixels})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ClassifyResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getReady(t *testing.T, url string) (int, ReadyResponse) {
	t.Helper()
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("/readyz not valid JSON: %v", err)
	}
	return resp.StatusCode, rr
}

// TestReadyzDraining: a fresh server is ready; the first moment of Close
// flips /readyz to 503 with a draining reason, while /healthz (liveness)
// stays 200.
func TestReadyzDraining(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()

	if code, rr := getReady(t, srv.URL); code != http.StatusOK || !rr.Ready {
		t.Fatalf("fresh server: readyz = %d %+v, want 200 ready", code, rr)
	}

	s.Close()
	code, rr := getReady(t, srv.URL)
	if code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("draining server: readyz = %d %+v, want 503 not-ready", code, rr)
	}
	if len(rr.Reasons) == 0 || !strings.Contains(rr.Reasons[0], "draining") {
		t.Fatalf("reasons %v, want draining", rr.Reasons)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}
}

// TestReadyzShedRung: with every route's queue at its spill mark the next
// request would be refused, so readiness drops — and it is back the moment
// the queues drain, with nothing to relax first.
func TestReadyzShedRung(t *testing.T) {
	_, url, release := saturate(t)
	code, rr := getReady(t, url)
	if code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("saturated server: readyz = %d %+v, want 503 not-ready", code, rr)
	}
	if len(rr.Reasons) != 1 || rr.Reasons[0] != "shedding: no route has room" {
		t.Fatalf("reasons %v, want shedding alone", rr.Reasons)
	}

	release()
	if code, rr := getReady(t, url); code != http.StatusOK || !rr.Ready {
		t.Fatalf("drained server: readyz = %d %+v, want 200 ready", code, rr)
	}
}

// TestBreakerOpenSurfacesEverywhere wedges the hard route, trips its
// breaker over HTTP, and checks every surface an open breaker shows on: the
// next hard request is diverted to a healthy route and served, /readyz
// reports not-ready with the breaker reason, /metrics exposes the open
// state, and the flight ring holds the transition events.
func TestBreakerOpenSurfacesEverywhere(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetStuck(string(engine.RouteHard))
	s := serverWithEngineConfig(t, engine.Config{
		Workers: 1,
		Fault:   inj,
		Resilience: engine.ResilienceConfig{
			// Tiny window so two singleton failures trip it; a long
			// cooldown holds it open for the assertions below.
			Breaker: resilience.BreakerConfig{
				Window: 4, MinSamples: 2,
				Cooldown: time.Minute, Probes: 1,
			},
		},
	}, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	hard := serveHardImage(t, 1)
	// Two singleton hard batches fail — enough samples to trip the
	// breaker (MinSamples 2, threshold 0.5) with the long test cooldown
	// holding it open for the assertions below.
	for i := 0; i < 2; i++ {
		resp, _ := postPixels(t, srv.URL, hard)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("stuck hard request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if !s.Engine.BreakerOpen(engine.RouteHard) {
		t.Fatal("hard breaker still closed after two singleton failures")
	}

	// A hard-scoring request now diverts to the easy route and succeeds.
	resp, cr := postPixels(t, srv.URL, serveHardImage(t, 2000))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diverted request: status %d, want 200", resp.StatusCode)
	}
	if cr.Route != string(engine.RouteEasy) {
		t.Fatalf("diverted request served on %q, want easy", cr.Route)
	}

	code, rr := getReady(t, srv.URL)
	if code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("breaker-open server: readyz = %d %+v, want 503 not-ready", code, rr)
	}
	found := false
	for _, r := range rr.Reasons {
		if strings.Contains(r, "breaker open") && strings.Contains(r, "hard") {
			found = true
		}
	}
	if !found {
		t.Fatalf("reasons %v, want breaker open on hard", rr.Reasons)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(page), `cbnet_breaker_state{route="hard"} 1`) {
		t.Fatal("/metrics missing open hard breaker state")
	}

	fresp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.NewDecoder(fresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	sawOpen := false
	for _, e := range dump.Events {
		if e.Kind == "breaker" && e.Status == 1 {
			sawOpen = true
		}
	}
	if !sawOpen {
		t.Fatalf("flight ring holds no breaker-open event")
	}
}

// TestPoisonQuarantine422 runs the full poison drill over HTTP: a poisoned
// request co-batched with innocents fails 500 while the innocents are
// served by bisection, and the bit-identical resubmission is rejected at
// admission with 422 plus a quarantine flight event.
func TestPoisonQuarantine422(t *testing.T) {
	inj := chaos.NewInjector()
	inj.SetLatency("", 20*time.Millisecond)
	inj.SetPoisonValue(servePoisonPixel)
	s := serverWithEngineConfig(t, engine.Config{
		MaxBatch: 16, Workers: 1,
		Fault: inj,
	}, Options{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	// Primer, innocents and pill all score easy: one route, one batch.
	primer := serveEasyImages(t, 999, 1, nil)[0]
	innocents := serveEasyImages(t, 10, 6, nil)
	poison := serveEasyImages(t, 7, 1, func(img []float32) { img[0] = servePoisonPixel })[0]

	// HTTP scheduling is jittery, so retry the wedge-and-coalesce drill
	// until the poison lands in a multi-request batch and is convicted
	// (singleton batch failures never quarantine, by design).
	convicted := false
	for attempt := 0; attempt < 10 && !convicted; attempt++ {
		var wg sync.WaitGroup
		// Primer occupies the single worker for the injected latency...
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := postPixels(t, srv.URL, primer)
			_ = r
		}()
		time.Sleep(10 * time.Millisecond)
		// ...so these coalesce into one batch behind it.
		innocentOK := make([]bool, len(innocents))
		for i, img := range innocents {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				r, _ := postPixels(t, srv.URL, img)
				innocentOK[i] = r.StatusCode == http.StatusOK
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := postPixels(t, srv.URL, poison)
			_ = r
		}()
		wg.Wait()
		for i, ok := range innocentOK {
			if !ok {
				t.Fatalf("attempt %d: innocent %d not served", attempt, i)
			}
		}
		convicted = s.Engine.Resilience().QuarantineSize > 0
	}
	if !convicted {
		t.Fatal("poison never convicted in 10 drill attempts")
	}

	// The bit-identical resubmission is rejected at admission: 422, body
	// names the quarantine, flight records the hit.
	body, _ := json.Marshal(ClassifyRequest{Pixels: poison})
	resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("resubmitted poison: status %d, want 422 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "quarantine") {
		t.Fatalf("422 body %q does not name the quarantine", raw)
	}

	fresp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.NewDecoder(fresp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	fresp.Body.Close()
	sawQuarantine := false
	for _, e := range dump.Events {
		if e.Kind == "quarantine" && e.Status == http.StatusUnprocessableEntity {
			sawQuarantine = true
		}
	}
	if !sawQuarantine {
		t.Fatal("flight ring holds no quarantine event")
	}

	// A fresh innocent is still served — the quarantine is per-input, not
	// per-route.
	if r, _ := postPixels(t, srv.URL, serveEasyImage(50)); r.StatusCode != http.StatusOK {
		t.Fatalf("innocent after conviction: status %d, want 200", r.StatusCode)
	}
}

// TestDumpFlightShutdown: the graceful-shutdown hook writes an
// unconditional dump with the caller's trigger, independent of the
// auto-dump cooldown machinery.
func TestDumpFlightShutdown(t *testing.T) {
	dir := t.TempDir()
	s := testServerWithOptions(t, Options{FlightDir: dir})
	srv := httptest.NewServer(s)
	defer srv.Close()
	classifyOnce(t, srv.URL)

	s.DumpFlight("shutdown")
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no flight dump written by DumpFlight (err %v)", err)
	}
	raw, err := os.ReadFile(files[len(files)-1])
	if err != nil {
		t.Fatal(err)
	}
	var dump flight.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("dump file not valid JSON: %v", err)
	}
	if !strings.Contains(dump.Trigger, "shutdown") {
		t.Fatalf("trigger %q, want shutdown", dump.Trigger)
	}
	if len(dump.Events) == 0 {
		t.Fatal("shutdown dump carries no events")
	}
}

// TestReadyzVariantBreakerOpen: overflow lands on a variant route, so an
// open breaker there holds readiness down like one on easy or hard. A
// /readyz that asked about the two built-in routes only reported ready with
// the variant wedged.
func TestReadyzVariantBreakerOpen(t *testing.T) {
	fault := &routeFault{release: make(chan struct{}), hold: map[string]bool{"easy": true}, stuck: "pruned"}
	cfg := spillConfig(fault)
	cfg.Resilience = engine.ResilienceConfig{
		Breaker: resilience.BreakerConfig{
			Window: 4, MinSamples: 2,
			Cooldown: time.Minute, Probes: 1,
		},
	}
	s, _ := serverWithPrunedRung(t, cfg)
	srv := httptest.NewServer(s)
	defer srv.Close()

	if code, rr := getReady(t, srv.URL); code != http.StatusOK || !rr.Ready {
		t.Fatalf("healthy server: readyz = %d %+v, want 200 ready", code, rr)
	}
	// Easy at its mark: the easy images after that are pruned's.
	wait := fillRoute(t, s, srv.URL, "easy", serveEasyImage(0))
	for i := 0; i < 2; i++ {
		resp, _ := postPixels(t, srv.URL, serveEasyImage(uint64(i)))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("stuck pruned request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if !s.Engine.BreakerOpen("pruned") {
		t.Fatal("pruned breaker still closed after two singleton failures")
	}
	close(fault.release)
	wait()
	code, rr := getReady(t, srv.URL)
	if code != http.StatusServiceUnavailable || rr.Ready {
		t.Fatalf("variant breaker open: readyz = %d %+v, want 503 not-ready", code, rr)
	}
	if len(rr.Reasons) != 1 || rr.Reasons[0] != "breaker open: route pruned" {
		t.Fatalf("reasons %v, want the pruned breaker alone", rr.Reasons)
	}
}
