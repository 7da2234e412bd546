package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/tensor"
)

// quietOptions keeps per-request warnings out of fuzz and benchmark output.
var quietOptions = Options{Logger: slog.New(slog.DiscardHandler)}

// pixelsJSON writes {"pixels":[v,v,…]} with n copies of the token v, plus
// any further members.
func pixelsJSON(n int, v string, rest string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"pixels":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v)
	}
	b.WriteString(`]` + rest + `}`)
	return b.Bytes()
}

// decodeSeeds is the committed corpus of FuzzClassifyDecode: the canonical
// shapes, every number spelling on either side of the JSON grammar and of
// float32's range, and the shapes that must fall through to encoding/json.
func decodeSeeds() [][]byte {
	img, _ := json.Marshal(ClassifyRequest{Pixels: serveEasyImage(3), IncludeConverted: true})
	seeds := [][]byte{
		img,
		pixelsJSON(dataset.Pixels, "0.5", ""),
		pixelsJSON(dataset.Pixels-1, "0.5", ""),
		pixelsJSON(dataset.Pixels+1, "0.5", ""),
		pixelsJSON(dataset.Pixels, "0.5", `,"includeConverted":true`),
		[]byte(" \t\r\n{ \"includeConverted\" : false , \"pixels\" : [ 0 , 1 ,\n0.25 ] } \n"),
		[]byte(`{}`), []byte(`{"pixels":[]}`), []byte(`{"pixels":null}`), []byte(`null`), []byte(`[]`), nil,
		[]byte(`{"pixels":[1],"pixels":[0.5,0.25]}`),
		[]byte(`{"includeConverted":true,"includeConverted":false}`),
		[]byte(`{"Pixels":[1]}`), []byte(`{"PIXELS":[1],"includeconverted":true}`),
		[]byte(`{"pix\u0065ls":[1]}`), []byte(`{"pixels ":[1]}`), []byte("{\"pix\x00els\":[1]}"),
		[]byte(`{"pixels":[1],"meta":{"a":[1,{"b":null}],"c":"}"}}`),
		[]byte(`{"pixels":[[1]]}`), []byte(`{"pixels":["1"]}`), []byte(`{"pixels":[true]}`), []byte(`{"pixels":{"0":1}}`),
		[]byte(`{"pixels":[1],"includeConverted":null}`), []byte(`{"pixels":[1],"includeConverted":1}`),
		[]byte(`{"pixels":[1],"includeConverted":"true"}`), []byte(`{"pixels":[1],"includeConverted":truex}`),
		[]byte(`{"pixels":[1]}trailing`), []byte(`{"pixels":[1]}{"pixels":[2]}`), []byte(`{"pixels":[1]}}`),
		[]byte(`{"pixels":[1,]}`), []byte(`{"pixels":[,1]}`), []byte(`{"pixels":[1],}`), []byte(`{,"pixels":[1]}`),
		[]byte(`{"pixels":[1 2]}`), []byte(`{"pixels" [1]}`), []byte(`{pixels:[1]}`), []byte("\ufeff{\"pixels\":[1]}"),
		[]byte("{\"pixels\":[1\v]}"), []byte("{\"pixels\":[1\u00a0]}"),
	}
	for _, num := range []string{
		"0", "-0", "1", "0.0", "1E+2", "1e2", "1e-400", "-1e-400", "1e39", "-1e39", "3.4028235e38", "3.4028236e38",
		"1e-45", "0.1", "0.30000001192092896", "0.77777", "0.777770000000000000000000000000000000000001",
		"123456789012345678901234567890", "01", "1.", ".5", "+1", "-", "-.5", "1e", "1e+", "1.e1", "00", "-01",
		"nan", "NaN", "inf", "-Inf", "Infinity", "0x1p-2", "0X10", "1_0", "1e1_0", "1f", "١",
	} {
		seeds = append(seeds, []byte(`{"pixels":[0.5,`+num+`]}`), []byte(`{"pixels":[`+num+`]}`))
	}
	// Truncation at every byte, and so at every token, of a body that has
	// all of them.
	full := []byte(`{"pixels":[0.5, -1.25e-3 ,1],"includeConverted":false}`)
	for i := range full {
		seeds = append(seeds, full[:i])
	}
	return seeds
}

// checkDecodeAgrees is the differential oracle: decodeJSON against the
// decode the handler used to run, on accept/reject, the error text, every
// pixel's bits and includeConverted.
func checkDecodeAgrees(t *testing.T, data []byte) {
	t.Helper()
	var want ClassifyRequest
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)

	st := &classifyState{body: data}
	pixels, inc, err := st.decodeJSON()
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != "decoding json: "+wantErr.Error() {
		t.Fatalf("error %v, encoding/json: %v\nbody %q", err, wantErr, data)
	}
	if err != nil {
		return
	}
	if inc != want.IncludeConverted {
		t.Fatalf("includeConverted %v, encoding/json: %v\nbody %q", inc, want.IncludeConverted, data)
	}
	if len(pixels) != len(want.Pixels) {
		t.Fatalf("%d pixels, encoding/json: %d\nbody %q", len(pixels), len(want.Pixels), data)
	}
	for i := range pixels {
		if math.Float32bits(pixels[i]) != math.Float32bits(want.Pixels[i]) {
			t.Fatalf("pixel %d = %v (%#x), encoding/json: %v (%#x)\nbody %q", i,
				pixels[i], math.Float32bits(pixels[i]), want.Pixels[i], math.Float32bits(want.Pixels[i]), data)
		}
	}
}

func FuzzClassifyDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkDecodeAgrees)
}

// TestScanClassifyTakesClientBodies keeps the differential fuzz honest: the
// bodies clients send must be decoded by scanClassify itself, not by the
// fallback it is compared with.
func TestScanClassifyTakesClientBodies(t *testing.T) {
	img := serveEasyImage(5)
	img[0] = servePoisonPixel
	marshalled, _ := json.Marshal(ClassifyRequest{Pixels: img})
	withFlag, _ := json.Marshal(ClassifyRequest{Pixels: img, IncludeConverted: true})
	spaced := bytes.ReplaceAll(marshalled, []byte(","), []byte(" ,\n\t"))
	for name, body := range map[string][]byte{"marshalled": marshalled, "includeConverted": withFlag, "spaced": spaced} {
		var px [dataset.Pixels]float32
		n, inc, ok := scanClassify(body, &px)
		if !ok || n != dataset.Pixels || inc != (name == "includeConverted") {
			t.Fatalf("%s: scanClassify = (%d, %v, %v)", name, n, inc, ok)
		}
		for i := range img {
			if math.Float32bits(px[i]) != math.Float32bits(img[i]) {
				t.Fatalf("%s: pixel %d = %v, want %v", name, i, px[i], img[i])
			}
		}
	}
	// And it must decline, not mis-parse, what only encoding/json handles.
	for _, body := range []string{`{"Pixels":[1]}`, `{"pixels":null}`, `{"pixels":[1],"x":1}`, `{"pixels":[1e39]}`, string(pixelsJSON(dataset.Pixels+1, "0", ""))} {
		var px [dataset.Pixels]float32
		if _, _, ok := scanClassify([]byte(body), &px); ok {
			t.Fatalf("scanClassify took %.40q", body)
		}
	}
}

// Measured 7 and 55 on go1.24 linux/amd64; the budgets leave one of slack.
// Not held under -race, where sync.Pool drops a share of its Puts and the
// count wanders past any fixed budget.
const (
	jsonAllocBudget = 8
	pngAllocBudget  = 56
)

// replayBody is a request body that can be rewound, so one *http.Request
// serves many ServeHTTP calls without allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

func replayRequest(body []byte, contentType string) (*http.Request, func()) {
	rb := &replayBody{}
	rb.Reset(body)
	req := httptest.NewRequest(http.MethodPost, "/classify", nil)
	req.Body = rb
	req.ContentLength = int64(len(body))
	req.Header.Set("Content-Type", contentType)
	return req, func() { rb.Reset(body) }
}

// replayWriter is a ResponseWriter that can be reused the same way.
type replayWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) WriteHeader(code int)        { w.code = code }
func (w *replayWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *replayWriter) reset()                      { clear(w.h); w.code = 0; w.body.Reset() }

// serveBody runs one /classify request through ServeHTTP in-process.
func serveBody(ctx context.Context, s *Server, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/classify", bytes.NewReader(body)).WithContext(ctx)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestNonJSONNumberSpellingsRejected: strconv.ParseFloat reads nan, inf,
// hex floats and digit separators; the handler now calls it directly, so
// the JSON grammar check in front of it is what keeps them out.
func TestNonJSONNumberSpellingsRejected(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	for _, num := range []string{"nan", "NaN", "inf", "+Inf", "-inf", "Infinity", "0x1p-1", "0x0", "1_0", "0_1", "+1", ".5", "1."} {
		rec := serveBody(context.Background(), s, pixelsJSON(dataset.Pixels, num, ""), nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("pixels spelled %q: status %d, want 400 (%s)", num, rec.Code, rec.Body)
		}
	}
	if st := s.Engine.Stats(); st.Submitted != 0 {
		t.Fatalf("%d requests reached the engine", st.Submitted)
	}
}

// TestBodyCapIsWholeBody: a byte past 1 MiB is 413 even when a complete
// request ends before it, and a body of exactly the cap is still read.
func TestBodyCapIsWholeBody(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	valid := pixelsJSON(dataset.Pixels, "0.5", "")
	atCap := append(append([]byte(nil), valid...), bytes.Repeat([]byte(" "), maxBodyBytes-len(valid))...)
	if rec := serveBody(context.Background(), s, atCap, nil); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly the cap: status %d (%s)", rec.Code, rec.Body)
	}
	rec := serveBody(context.Background(), s, append(atCap, ' '), nil)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("cap+1: status %d (%s)", rec.Code, rec.Body)
	}
	hdr := map[string]string{"Content-Type": "image/png"}
	if rec := serveBody(context.Background(), s, append(atCap, ' '), hdr); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("png cap+1: status %d (%s)", rec.Code, rec.Body)
	}
}

func TestParseDeadline(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   time.Duration
		ok     bool
	}{
		{"20", 20 * time.Millisecond, true},
		{"0.5", 500 * time.Microsecond, true},
		{"600000", maxDeadline, true},
		{"1e30", maxDeadline, true}, // overflowed int64 to a negative Duration, i.e. no deadline
		{"+Inf", maxDeadline, true},
		{"1e-9", 1, true}, // truncated to 0, i.e. no deadline
		{"NaN", 0, false}, // passed ms <= 0
		{"1e999", 0, false},
		{"0", 0, false},
		{"-5", 0, false},
		{"-Inf", 0, false},
		{"nope", 0, false},
		{"", 0, false},
	} {
		got, ok := parseDeadline(tc.header)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseDeadline(%q) = (%v, %v), want (%v, %v)", tc.header, got, ok, tc.want, tc.ok)
		}
	}
}

// TestAbsurdDeadlineHeaderStillBounds drives the same values through the
// handler: a conversion that broke them into a zero or negative duration
// would serve the request with no deadline at all.
func TestAbsurdDeadlineHeaderStillBounds(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	body := pixelsJSON(dataset.Pixels, "0.5", "")
	for header, want := range map[string]int{
		"1e30": http.StatusOK, "+Inf": http.StatusOK,
		"NaN":  http.StatusBadRequest,
		"1e-9": http.StatusGatewayTimeout, // a nanosecond is a deadline, and it has passed
	} {
		if rec := serveBody(context.Background(), s, body, map[string]string{DeadlineHeader: header}); rec.Code != want {
			t.Errorf("%s: %s: status %d, want %d (%s)", DeadlineHeader, header, rec.Code, want, rec.Body)
		}
	}
}

// TestGrayLumaMatchesGenericPath: the table the 8-bit gray fast path
// indexes holds, for every level, the bits the per-pixel path computes.
func TestGrayLumaMatchesGenericPath(t *testing.T) {
	// The same gray levels as a Gray image and as an image type the fast
	// path does not know, 784 pixels at a time.
	for base := 0; base < 256; base += 64 {
		gray := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
		generic := image.NewRGBA(gray.Rect)
		for i := range gray.Pix {
			v := uint8(base + i%64)
			gray.Pix[i] = v
			generic.Set(i%dataset.Side, i/dataset.Side, color.Gray{Y: v})
		}
		var fast, slow [dataset.Pixels]float32
		if err := pngToPixels(gray, &fast); err != nil {
			t.Fatal(err)
		}
		if err := pngToPixels(generic, &slow); err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if math.Float32bits(fast[i]) != math.Float32bits(slow[i]) {
				t.Fatalf("gray level %d: table %v, generic path %v", gray.Pix[i], fast[i], slow[i])
			}
		}
	}
	if grayLuma[0] != 0 || grayLuma[255] != 1 {
		t.Fatalf("grayLuma spans [%v, %v], want [0, 1]", grayLuma[0], grayLuma[255])
	}
	// A Gray sub-image has a stride and an origin of its own.
	big := image.NewGray(image.Rect(0, 0, 40, 40))
	for i := range big.Pix {
		big.Pix[i] = uint8(i)
	}
	sub := big.SubImage(image.Rect(5, 7, 5+dataset.Side, 7+dataset.Side))
	var got [dataset.Pixels]float32
	if err := pngToPixels(sub, &got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		x, y := 5+i%dataset.Side, 7+i/dataset.Side
		if want := grayLuma[big.GrayAt(x, y).Y]; got[i] != want {
			t.Fatalf("sub-image pixel (%d,%d) = %v, want %v", x, y, got[i], want)
		}
	}
}

// gateInjector holds every easy-route forward pass at a gate the test
// opens, with the verdict the test chooses, and keeps the rows of each
// batch that went on to run.
type gateInjector struct {
	entered chan int   // batch size, when a forward pass reaches the gate
	verdict chan error // what that forward pass is told

	mu   sync.Mutex
	rows [][]float32
}

func (g *gateInjector) BeforeInfer(route string, n int) error {
	if route != string(engine.RouteEasy) {
		return nil
	}
	g.entered <- n
	return <-g.verdict
}

func (g *gateInjector) BeforeInferBatch(route string, x *tensor.Tensor) error {
	if route != string(engine.RouteEasy) {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := 0; i < x.Shape[0]; i++ {
		g.rows = append(g.rows, append([]float32(nil), x.Data[i*dataset.Pixels:(i+1)*dataset.Pixels]...))
	}
	return nil
}

// TestAbandonedRequestKeepsItsPixels pins the pooled-state lifetime. A
// request whose client gives up while its batch is in the forward pass is
// still in that batch; when the batch then fails, bisection re-reads every
// member's pixels. Run under -race: a state pooled on abandonment is
// overwritten by the next request's decode while the worker reads it.
func TestAbandonedRequestKeepsItsPixels(t *testing.T) {
	gate := &gateInjector{entered: make(chan int), verdict: make(chan error)}
	s := serverWithEngineConfig(t, engine.Config{
		MaxBatch: 2, Workers: 1,
		Fault:      gate,
		Resilience: engine.ResilienceConfig{Enabled: true},
	}, quietOptions)
	// The primer, A and B score easy; the others ask for the converted image.
	easy := serveEasyImages(t, 1, 3, nil)

	bodyOf := func(px []float32, converted bool) []byte {
		b, err := json.Marshal(ClassifyRequest{Pixels: px, IncludeConverted: converted})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serveAsync := func(ctx context.Context, body []byte) <-chan int {
		done := make(chan int, 1)
		go func() { done <- serveBody(ctx, s, body, nil).Code }()
		return done
	}
	wait := func(what string, ch <-chan int) int {
		t.Helper()
		select {
		case v := <-ch:
			return v
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
			return 0
		}
	}

	// A primer occupies the route's only worker so that the two requests
	// behind it coalesce into one batch.
	primer := serveAsync(context.Background(), bodyOf(easy[0], false))
	wait("the primer's forward pass", gate.entered)

	pixA, pixB := easy[1], easy[2]
	ctxA, abandonA := context.WithCancel(context.Background())
	defer abandonA()
	doneA := serveAsync(ctxA, bodyOf(pixA, false))
	doneB := serveAsync(context.Background(), bodyOf(pixB, false))
	easyQueued := func() int {
		for _, r := range s.Engine.Stats().Routes {
			if r.Route == string(engine.RouteEasy) {
				return r.QueueDepth
			}
		}
		return 0
	}
	for deadline := time.Now().Add(10 * time.Second); easyQueued() != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the two requests never queued behind the primer")
		}
	}
	gate.verdict <- nil
	if code := wait("the primer", primer); code != http.StatusOK {
		t.Fatalf("primer: status %d", code)
	}
	if n := wait("the batch's forward pass", gate.entered); n != 2 {
		t.Fatalf("batch of %d at the gate, want 2", n)
	}

	// The batch is in its forward pass. A's client goes away...
	abandonA()
	if code := wait("the abandoned request's handler", doneA); code != http.StatusServiceUnavailable {
		t.Fatalf("abandoned request: status %d, want 503", code)
	}
	// ...and every state in the pool serves another request (on the hard
	// route, whose worker is free): at once, so that no state serves two.
	var others []<-chan int
	for i := 0; i < 8; i++ {
		other := make([]float32, dataset.Pixels)
		for j := range other {
			other[j] = float32(i+1) / 16
		}
		others = append(others, serveAsync(context.Background(), bodyOf(other, true)))
	}
	for i, done := range others {
		if code := wait("a request after the abandonment", done); code != http.StatusOK {
			t.Fatalf("request %d after the abandonment: status %d", i, code)
		}
	}

	// The batch fails; bisection re-runs A and B alone.
	gate.verdict <- errors.New("injected batch failure")
	for i := 0; i < 2; i++ {
		if n := wait("a bisection re-run", gate.entered); n != 1 {
			t.Fatalf("bisection re-ran %d rows at once, want 1", n)
		}
		gate.verdict <- nil
	}
	if code := wait("the surviving request", doneB); code != http.StatusOK {
		t.Fatalf("surviving request: status %d, want 200", code)
	}
	// B's answer does not mean A's re-run is through: when B went first, A's
	// is past the gate but may not have recorded its row yet. Every request
	// sent — the primer, the eight, A and B — completes in the engine.
	for deadline := time.Now().Add(10 * time.Second); s.Engine.Stats().Completed < 11; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 11 requests completed in the engine", s.Engine.Stats().Completed)
		}
	}

	gate.mu.Lock()
	defer gate.mu.Unlock()
	if len(gate.rows) != 3 { // the primer, then A and B
		t.Fatalf("%d rows went through the forward pass, want 3", len(gate.rows))
	}
	rowIs := func(row, want []float32) bool {
		for i := range want {
			if math.Float32bits(row[i]) != math.Float32bits(want[i]) {
				return false
			}
		}
		return true
	}
	a, b := gate.rows[1], gate.rows[2]
	if !(rowIs(a, pixA) && rowIs(b, pixB)) && !(rowIs(a, pixB) && rowIs(b, pixA)) {
		t.Fatal("the abandoned request was re-run on pixels that are not its own")
	}
}

// TestClassifyAllocBudget pins heap allocations per request on both content
// types, handler and engine together, so that a regression on the request
// path fails here and not in a benchmark. The budgets are the measured
// counts; what is left is net/http's mux, the engine's request and reply
// channel, the two header values and, for PNG, image/png's decoder.
func TestClassifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops entries; an allocation budget is only meaningful without -race")
	}
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	img := serveEasyImage(4)
	jsonBody, _ := json.Marshal(ClassifyRequest{Pixels: img})
	gray := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
	for i, v := range img {
		gray.Pix[i] = uint8(v * 255)
	}
	var pngBody bytes.Buffer
	if err := png.Encode(&pngBody, gray); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
		budget      float64
	}{
		{"application/json", jsonBody, jsonAllocBudget},
		{"image/png", pngBody.Bytes(), pngAllocBudget},
	} {
		req, rewind := replayRequest(tc.body, tc.contentType)
		w := &replayWriter{h: http.Header{}}
		got := testing.AllocsPerRun(200, func() {
			rewind()
			w.reset()
			s.ServeHTTP(w, req)
		})
		if w.code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.contentType, w.code, w.body.String())
		}
		t.Logf("%s: %.0f allocs per request", tc.contentType, got)
		if got > tc.budget {
			t.Errorf("%s: %.0f allocs per request, budget %.0f", tc.contentType, got, tc.budget)
		}
	}
}

// FuzzClassifyHandler: whatever the body, content type and deadline header,
// /classify answers 200, 400 or 413 — or 504 when the header is a deadline
// and it ran out — and never panics or fails with another 5xx.
func FuzzClassifyHandler(f *testing.F) {
	s := serverWithEngineConfig(f, engine.Config{}, quietOptions)
	var pngBody bytes.Buffer
	if err := png.Encode(&pngBody, image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))); err != nil {
		f.Fatal(err)
	}
	for _, body := range append(decodeSeeds(), pngBody.Bytes(), pngBody.Bytes()[:40], []byte("\x89PNG\r\n\x1a\n")) {
		f.Add(body, "application/json", "")
	}
	f.Add(pngBody.Bytes(), "image/png", "")
	f.Add(pngBody.Bytes()[:40], "image/png", "5")
	f.Add(pixelsJSON(dataset.Pixels, "0.5", ""), "image/png", "")
	f.Add(pixelsJSON(dataset.Pixels, "0.5", ""), "text/plain; charset=utf-8", "1e30")
	for _, h := range []string{"20", "1e-9", "NaN", "+Inf", "-1", "0x10", "1e999", "ten", " 5"} {
		f.Add(pixelsJSON(dataset.Pixels, "1", ""), "", h)
	}
	f.Fuzz(func(t *testing.T, body []byte, contentType, deadline string) {
		hdr := map[string]string{"Content-Type": contentType}
		if deadline != "" {
			hdr[DeadlineHeader] = deadline
		}
		rec := serveBody(context.Background(), s, body, hdr)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		case http.StatusGatewayTimeout:
			if _, ok := parseDeadline(deadline); !ok {
				t.Fatalf("504 without a deadline (header %q)", deadline)
			}
		default:
			t.Fatalf("status %d (%s)\nbody %q\ncontent type %q, deadline %q", rec.Code, rec.Body, body, contentType, deadline)
		}
		var reply map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("status %d with a body that is not JSON: %v\n%s", rec.Code, err, rec.Body)
		}
		if id, _ := reply["requestId"].(float64); id <= 0 {
			t.Fatalf("status %d without a requestId: %s", rec.Code, rec.Body)
		}
		if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(rec.Body.Len()) {
			t.Fatalf("Content-Length %q on a body of %d bytes", got, rec.Body.Len())
		}
	})
}
