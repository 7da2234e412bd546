package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbnet/internal/chaos"
	"cbnet/internal/compress"
	"cbnet/internal/core"
	"cbnet/internal/device"
	"cbnet/internal/engine"
	"cbnet/internal/flight"
	"cbnet/internal/nn"
	"cbnet/internal/resilience"
)

// scrape fetches /metrics and returns every sample keyed by its series as
// the exposition prints it (`name{label="v",...}` or a bare name), histogram
// lines included.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		samples[line[:cut]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// sample returns one scraped series, failing the test when it is absent.
func sample(t *testing.T, samples map[string]float64, series string) float64 {
	t.Helper()
	v, ok := samples[series]
	if !ok {
		t.Fatalf("scrape has no series %s", series)
	}
	return v
}

func relClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// serverWithPrunedRung builds a test server whose engine mounts the pruned
// lightweight classifier as a variant route at the end of an armed ladder,
// the way cbnet-serve -degrade wires it. It returns the pruned network
// beside the server.
func serverWithPrunedRung(t *testing.T, cfg engine.Config) (*Server, *nn.Sequential) {
	t.Helper()
	pruned, err := compress.PruneLightweight(testPipeline().Classifier,
		compress.LightweightPruneConfig{Conv1Keep: 2. / 3., BranchKeep: 2. / 3.})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Variants = []engine.Variant{{Name: "pruned", Net: pruned}}
	cfg.Degrade = engine.DegradeConfig{Enabled: true}
	return serverWithEngineConfig(t, cfg, Options{}), pruned
}

// stickyBreakers arms cfg with a chaos injector and breakers a test can
// close a route with: two failures open one (one, after a success) and
// nothing closes it again within a test's lifetime.
func stickyBreakers(cfg engine.Config) (engine.Config, *chaos.Injector) {
	inj := chaos.NewInjector()
	cfg.Fault = inj
	cfg.Resilience = engine.ResilienceConfig{
		Enabled: true,
		Breaker: resilience.BreakerConfig{Window: 2, MinSamples: 2, Cooldown: time.Hour},
	}
	return cfg, inj
}

// closeRoute sticks the named route and posts img — which must land on it —
// until the route's breaker opens: from then on the engine passes it over.
func closeRoute(t *testing.T, s *Server, url string, inj *chaos.Injector, route engine.RouteName, img []float32) {
	t.Helper()
	inj.SetStuck(string(route))
	for i := 0; !s.Engine.BreakerOpen(route); i++ {
		if i == 10 {
			t.Fatalf("%s breaker still closed after %d stuck requests", route, i)
		}
		if resp, _ := postPixels(t, url, img); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("stuck %s request: status %d, want 500", route, resp.StatusCode)
		}
	}
	inj.SetStuck("")
}

// TestEnergyFiguresAgree pins the one energy ledger: with the pruned variant
// mounted and traffic on every live route, /metrics, /classify and the
// flight ring each report, for a route, core.PriceImage of that route's own
// device.Cost — the lightweight classifier for easy, AE + classifier for
// hard, the pruned network for pruned. Before the ledger was one, /metrics
// priced the fused plan steps separately (hard −8.5 %, easy −3.1 % on the Pi 4) and
// /classify answered a pruned request with the full pipeline's figures
// (+98 %) under a flight label of "hard".
func TestEnergyFiguresAgree(t *testing.T) {
	cfg, inj := stickyBreakers(engine.Config{Workers: 1})
	s, pruned := serverWithPrunedRung(t, cfg)
	pipe, prof := s.Pipeline, s.Profile
	srv := httptest.NewServer(s)
	defer srv.Close()

	costs := map[string]device.Cost{
		"easy":   pipe.DirectCost(),
		"hard":   pipe.Cost(),
		"pruned": device.SequentialCost(pruned),
	}

	// Traffic on every live route; each answer is held to its own route's
	// figures on the server's profile.
	var replies []ClassifyResponse
	post := func(wantRoute string, pixels []float32) {
		t.Helper()
		resp, cr := postPixels(t, srv.URL, pixels)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s request: status %d", wantRoute, resp.StatusCode)
		}
		if cr.Route != wantRoute {
			t.Fatalf("request routed %q, want %q", cr.Route, wantRoute)
		}
		secs, joules, err := core.PriceImage(prof, costs[cr.Route])
		if err != nil {
			t.Fatal(err)
		}
		if !relClose(cr.EnergyEstimateMJ, joules*1e3) {
			t.Errorf("route %s: energyEstimateMj = %v, want %v (its own network on %s)", cr.Route, cr.EnergyEstimateMJ, joules*1e3, prof.Name)
		}
		if !relClose(cr.ModelLatencyMS, secs*1e3) {
			t.Errorf("route %s: modelLatencyMs = %v, want %v", cr.Route, cr.ModelLatencyMS, secs*1e3)
		}
		replies = append(replies, cr)
	}
	for i := uint64(0); i < 3; i++ {
		post("easy", serveEasyImage(i))
	}
	for i := uint64(0); i < 2; i++ {
		post("hard", serveHardImage(t, 100*i))
	}
	// With hard and easy closed, the ladder's last route answers.
	closeRoute(t, s, srv.URL, inj, engine.RouteHard, serveHardImage(t, 0))
	closeRoute(t, s, srv.URL, inj, engine.RouteEasy, serveEasyImage(0))
	for i := uint64(0); i < 4; i++ {
		post("pruned", serveEasyImage(10+i))
	}

	// The flight ring names the route each request completed on.
	resp, err := http.Get(srv.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var dump flight.Dump
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	completed := map[uint64]string{}
	for _, e := range dump.Events {
		if e.Kind == "complete" {
			completed[e.RequestID] = e.Route
		}
	}
	for _, cr := range replies {
		if got := completed[cr.RequestID]; got != cr.Route {
			t.Errorf("request %d: flight complete event on route %q, response says %q", cr.RequestID, got, cr.Route)
		}
	}

	// Every reply is in hand, so the scrape is quiesced: per-image figures
	// are the route's priced cost on each profile, totals are that times
	// the route's images from the same page.
	samples := scrape(t, srv.URL)
	for _, p := range device.All() {
		for route, cost := range costs {
			secs, joules, err := core.PriceImage(p, cost)
			if err != nil {
				t.Fatal(err)
			}
			labels := fmt.Sprintf(`{device=%q,route=%q}`, p.Name, route)
			if got := sample(t, samples, "cbnet_energy_joules_per_image"+labels); !relClose(got, joules) {
				t.Errorf("cbnet_energy_joules_per_image%s = %v, want %v (%+.1f%%)", labels, got, joules, 100*(got-joules)/joules)
			}
			if got := sample(t, samples, "cbnet_energy_seconds_per_image"+labels); !relClose(got, secs) {
				t.Errorf("cbnet_energy_seconds_per_image%s = %v, want %v", labels, got, secs)
			}
			images := sample(t, samples, fmt.Sprintf(`cbnet_route_images_total{route=%q}`, route))
			if images == 0 {
				t.Errorf("route %s served no images", route)
			}
			if got := sample(t, samples, "cbnet_energy_joules_total"+labels); !relClose(got, joules*images) {
				t.Errorf("cbnet_energy_joules_total%s = %v, want %v × %v images", labels, got, joules, images)
			}
		}
	}
	for series := range samples {
		if strings.HasPrefix(series, "cbnet_energy_") && (strings.Contains(series, "plan=") || strings.Contains(series, "step=")) {
			t.Errorf("energy series still carries a plan/step label: %s", series)
		}
	}
}

// TestStatsAgreeWithMetrics: after a quiesced burst over all three routes,
// every counter and gauge /stats reports is the same number as its cbnet_*
// sample on /metrics — both read the engine's one set of counters.
func TestStatsAgreeWithMetrics(t *testing.T) {
	cfg, inj := stickyBreakers(engine.Config{Workers: 1})
	s, _ := serverWithPrunedRung(t, cfg)
	srv := httptest.NewServer(s)
	defer srv.Close()

	for i := uint64(0); i < 5; i++ {
		postPixels(t, srv.URL, serveEasyImage(i))
	}
	postPixels(t, srv.URL, serveHardImage(t, 0))
	// Close the ladder from the top: one request diverted to pruned and
	// served, then one that no route takes.
	closeRoute(t, s, srv.URL, inj, engine.RouteHard, serveHardImage(t, 0))
	closeRoute(t, s, srv.URL, inj, engine.RouteEasy, serveEasyImage(0))
	if resp, cr := postPixels(t, srv.URL, serveEasyImage(7)); resp.StatusCode != http.StatusOK || cr.Route != "pruned" {
		t.Fatalf("hard and easy closed: status %d route %q, want 200 from pruned", resp.StatusCode, cr.Route)
	}
	closeRoute(t, s, srv.URL, inj, "pruned", serveEasyImage(0))
	if resp, _ := postPixels(t, srv.URL, serveEasyImage(8)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("every route closed: answered %d, want 503", resp.StatusCode)
	}
	// A dead-on-arrival deadline: counted as expired, never queued.
	if resp := classifyWithHeaders(t, srv.URL, map[string]string{DeadlineHeader: "0.000001"}); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired request answered %d, want 504", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, srv.URL)

	check := func(series string, want int64) {
		t.Helper()
		if got := sample(t, samples, series); got != float64(want) {
			t.Errorf("%s = %v, /stats says %d", series, got, want)
		}
	}
	check("cbnet_requests_submitted_total", st.Submitted)
	check("cbnet_requests_completed_total", st.Completed)
	check("cbnet_requests_rejected_total", st.Rejected)
	check("cbnet_requests_shed_total", st.Shed)
	check("cbnet_requests_diverted_total", st.Diverted)
	check("cbnet_requests_deadline_expired_total", st.DeadlineExpired)
	check("cbnet_infer_failures_total", st.InferFailed)
	check("cbnet_requests_abandoned_total", st.Abandoned)
	// Diverted: the one pruned served and the one that failed opening its
	// breaker. InferFailed: one per breaker opened (each route had a success
	// in its 2-sample window).
	if st.Completed != 7 || st.Shed != 1 || st.Diverted != 2 || st.InferFailed != 3 || st.DeadlineExpired != 1 {
		t.Errorf("/stats completed %d shed %d diverted %d inferFailed %d deadlineExpired %d, want 7/1/2/3/1",
			st.Completed, st.Shed, st.Diverted, st.InferFailed, st.DeadlineExpired)
	}
	if len(st.Routes) != 3 {
		t.Fatalf("/stats lists %d routes, want 3", len(st.Routes))
	}
	for _, r := range st.Routes {
		labels := fmt.Sprintf(`{route=%q}`, r.Route)
		check("cbnet_route_images_total"+labels, r.Images)
		check("cbnet_route_batches_total"+labels, r.Batches)
		check("cbnet_route_queued"+labels, r.Queued)
		check("cbnet_route_inflight"+labels, r.InFlight)
		if r.Images == 0 {
			t.Errorf("route %s served nothing: the comparison is vacuous", r.Route)
		}
	}
}
