package serve

import (
	"bytes"
	"encoding/json"
	"image"
	"image/color"
	"image/png"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/models"
	"cbnet/internal/rng"
)

// testPipeline is the untrained pipeline every test server wraps — handler
// behaviour (routing, validation, encoding) does not depend on weights.
func testPipeline() *core.Pipeline {
	r := rng.New(1)
	b := models.NewBranchyLeNet(r, 0.05)
	return &core.Pipeline{
		AE:         models.NewTableIAE(dataset.MNIST, r),
		Classifier: models.ExtractLightweight(b),
	}
}

// testServer builds a server with a default-configured engine.
func testServer(t *testing.T) *Server {
	t.Helper()
	return serverWithEngineConfig(t, engine.Config{}, Options{})
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestInfo(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Dataset != "MNIST" || info.Device != "RaspberryPi4" {
		t.Fatalf("info %+v", info)
	}
	if info.ModelLatencyMS <= 0 || info.PipelineMACs <= 0 {
		t.Fatalf("non-positive metrics: %+v", info)
	}
	if info.AEShareOfLatency <= 0 || info.AEShareOfLatency >= 1 {
		t.Fatalf("AE share %v", info.AEShareOfLatency)
	}
}

func classifyJSON(t *testing.T, url string, req ClassifyRequest) (*http.Response, ClassifyResponse) {
	t.Helper()
	body, err := json.Marshal(req)
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

func TestClassifyJSON(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(2)
	img := dataset.RenderSample(dataset.MNIST, 3, false, r)
	resp, out := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Class < 0 || out.Class >= dataset.NumClasses {
		t.Fatalf("class %d out of range", out.Class)
	}
	if out.ModelLatencyMS <= 0 || out.WallLatencyMS <= 0 {
		t.Fatalf("latencies %v/%v", out.ModelLatencyMS, out.WallLatencyMS)
	}
	if out.Converted != nil {
		t.Fatal("converted should be omitted unless requested")
	}
}

func TestClassifyIncludeConverted(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(3)
	img := dataset.RenderSample(dataset.MNIST, 5, true, r)
	resp, out := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img, IncludeConverted: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Converted) != dataset.Pixels {
		t.Fatalf("converted length %d", len(out.Converted))
	}
	for _, v := range out.Converted {
		if v < 0 || v > 1 {
			t.Fatalf("converted pixel %v outside [0,1]", v)
		}
	}
}

func TestClassifyPNG(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(4)
	pix := dataset.RenderSample(dataset.MNIST, 7, false, r)
	gray := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
	for i, v := range pix {
		gray.Pix[i] = uint8(v * 255)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, gray); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/classify", "image/png", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Class < 0 || out.Class >= dataset.NumClasses {
		t.Fatalf("class %d", out.Class)
	}
}

func TestClassifyRejectsBadInput(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()

	// Wrong pixel count.
	resp, _ := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short pixels: status %d", resp.StatusCode)
	}
	// Out-of-range pixel.
	bad := make([]float32, dataset.Pixels)
	bad[0] = 2
	resp, _ = classifyJSON(t, srv.URL, ClassifyRequest{Pixels: bad})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range pixel: status %d", resp.StatusCode)
	}
	// Malformed JSON.
	r2, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed json: status %d", r2.StatusCode)
	}
	// Wrong-size PNG.
	big := image.NewGray(image.Rect(0, 0, 64, 64))
	var buf bytes.Buffer
	if err := png.Encode(&buf, big); err != nil {
		t.Fatal(err)
	}
	r3, err := http.Post(srv.URL+"/classify", "image/png", &buf)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-size png: status %d", r3.StatusCode)
	}
	// Garbage PNG bytes.
	r4, err := http.Post(srv.URL+"/classify", "image/png", bytes.NewReader([]byte("not png")))
	if err != nil {
		t.Fatal(err)
	}
	r4.Body.Close()
	if r4.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage png: status %d", r4.StatusCode)
	}
}

func TestMethodRouting(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	// GET on classify must not be routed.
	resp, err := http.Get(srv.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("GET /classify should not succeed")
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(5)
	img := dataset.RenderSample(dataset.MNIST, 1, false, r)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(ClassifyRequest{Pixels: img})
			resp, err := http.Post(srv.URL+"/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- &httpError{resp.StatusCode}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type httpError struct{ code int }

func (e *httpError) Error() string { return http.StatusText(e.code) }

func TestPNGColorConversion(t *testing.T) {
	// A color PNG is converted via luma, not rejected.
	rgba := image.NewRGBA(image.Rect(0, 0, dataset.Side, dataset.Side))
	for y := 0; y < dataset.Side; y++ {
		for x := 0; x < dataset.Side; x++ {
			rgba.Set(x, y, color.RGBA{R: 255, G: 255, B: 255, A: 255})
		}
	}
	pix, err := pngRoundTrip(rgba)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pix {
		if v < 0.99 {
			t.Fatalf("white pixel converted to %v", v)
		}
	}
}

func pngRoundTrip(img image.Image) ([]float32, error) {
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, err
	}
	decoded, err := png.Decode(&buf)
	if err != nil {
		return nil, err
	}
	var out [dataset.Pixels]float32
	if err := pngToPixels(decoded, &out); err != nil {
		return nil, err
	}
	return out[:], nil
}

func TestClassifyReportsRoute(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(6)
	img := dataset.RenderSample(dataset.MNIST, 2, false, r)
	resp, out := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Route != string(engine.RouteEasy) && out.Route != string(engine.RouteHard) {
		t.Fatalf("route %q", out.Route)
	}
	if out.BatchSize < 1 {
		t.Fatalf("batch size %d", out.BatchSize)
	}
	if out.Hardness <= 0 {
		t.Fatalf("hardness %v, want > 0 with routing enabled", out.Hardness)
	}
	if out.QueueWaitMS < 0 {
		t.Fatalf("queue wait %v", out.QueueWaitMS)
	}
}

func TestEasyRouteReportsCheaperModelLatency(t *testing.T) {
	// When routing sends an image down the classifier-only path, the
	// calibrated estimate must exclude the autoencoder's share.
	s := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	r := rng.New(7)
	fullMS := s.Profile.Latency(s.Pipeline.Cost()) * 1e3
	for i := 0; i < 20; i++ {
		img := dataset.RenderSample(dataset.MNIST, i%dataset.NumClasses, false, r)
		resp, out := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		if out.Route == string(engine.RouteEasy) {
			if out.ModelLatencyMS >= fullMS {
				t.Fatalf("easy route model latency %v not below full-path %v", out.ModelLatencyMS, fullMS)
			}
			return
		}
	}
	t.Fatal("no clean render routed easy in 20 tries")
}

func TestStatsEndpoint(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	r := rng.New(8)
	img := dataset.RenderSample(dataset.MNIST, 4, false, r)
	for i := 0; i < 3; i++ {
		resp, _ := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var snap engine.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Submitted != 3 || snap.Completed != 3 {
		t.Fatalf("stats %d/%d, want 3/3", snap.Submitted, snap.Completed)
	}
	if len(snap.Routes) != 2 {
		t.Fatalf("routes %d", len(snap.Routes))
	}
}

func TestClassifyAfterCloseIsUnavailable(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s)
	defer srv.Close()
	s.Close()
	r := rng.New(9)
	img := dataset.RenderSample(dataset.MNIST, 6, false, r)
	resp, _ := classifyJSON(t, srv.URL, ClassifyRequest{Pixels: img})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 after shutdown", resp.StatusCode)
	}
}

func TestInfoReportsEngineConfig(t *testing.T) {
	srv := httptest.NewServer(testServer(t))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.MaxBatch <= 0 || info.Workers <= 0 {
		t.Fatalf("engine config missing from info: %+v", info)
	}
	if info.HardnessThreshold != engine.DefaultHardnessThreshold {
		t.Fatalf("routing config wrong in info: %+v", info)
	}
}
