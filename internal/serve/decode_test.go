package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/rng"
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
	// The edges of a digit run: where it ends, what ends it, and the end of
	// the body.
	seeds = append(seeds,
		// Runs of 7 to 16 digits.
		[]byte(`{"pixels":[0.1234567,0.12345678,0.123456789,12345678,1234567890123456,0.0017519225]}`),
		[]byte(`{"pixels":[1234567,123456789e-9,0.5]}`),
		// Digits running to the last byte of the body, and short numbers
		// at its end.
		[]byte(`{"pixels":[0.5,0.123456789`), []byte(`{"pixels":[0.123456789012`),
		[]byte(`{"pixels":[0.5,1e-5]}`), []byte(`{"pixels":[0.5,12]}`), []byte(`{"pixels":[1,0.25`),
		// A byte at or above 0x80 right after a digit or a point.
		[]byte("{\"pixels\":[0.\xb0]}"), []byte("{\"pixels\":[1\xb0]}"), []byte("{\"pixels\":[0.5\xff,1]}"),
		[]byte("{\"pixels\":[12345678\x80]}"), []byte("{\"pixels\":[0.1234\xba5678]}"), []byte("{\"pixels\":[0.12345\x7f]}"),
		[]byte("{\"pixels\":[1e1\xb0]}"), []byte("{\"pixels\":[0.:]}"), []byte("{\"pixels\":[0.1/]}"),
	)
	for _, num := range []string{
		// 9- and 17-digit fractions with leading zeros.
		"0.0017519225", "0.000000001", "0.001234567", "0.00000000000000001", "0.00123456789012345",
		"0.000000000000000000000000000001", "1e00001", "1e22", "1e23", "1e-22", "1e-23",
		"16777217", "1.6777217e7", "33554435", "9007199254740993", "1234567890123456789", "12345678901234567890",
	} {
		seeds = append(seeds, []byte(`{"pixels":[`+num+`,0.5]}`), []byte(`{"pixels":[0.5,`+num+`]}`))
	}
	// A fraction whose leading zeros cancel an exponent that reaches 10000.
	zeros := strings.Repeat("0", 9999)
	seeds = append(seeds, []byte(`{"pixels":[0.`+zeros+`1e100000]}`), []byte(`{"pixels":[0.5,0.`+zeros+`1e10000,1]}`))
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

// parseNumberMismatch returns what parseNumber gets wrong on tok, read as
// the whole input and followed by more of a body, against want and err,
// what strconv.ParseFloat(tok, 32) returns; "" when it agrees. pad is
// scratch.
func parseNumberMismatch(tok []byte, want float64, err error, pad *[]byte) string {
	*pad = append(append((*pad)[:0], tok...), ",0.12345]}"...)
	for _, in := range [][]byte{tok, *pad} {
		got, next := parseNumber(in, 0)
		switch {
		case err != nil && next >= 0:
			return fmt.Sprintf("parseNumber(%q) = %v, ParseFloat: %v", in, got, err)
		case err == nil && next != len(tok):
			return fmt.Sprintf("parseNumber(%q) stopped at %d, want %d", in, next, len(tok))
		case err == nil && math.Float32bits(got) != math.Float32bits(float32(want)):
			return fmt.Sprintf("parseNumber(%q) = %v (%#x), ParseFloat: %v (%#x)",
				in, got, math.Float32bits(got), float32(want), math.Float32bits(float32(want)))
		}
	}
	return ""
}

func checkParseNumber(t *testing.T, tok []byte, pad *[]byte) {
	t.Helper()
	want, err := strconv.ParseFloat(string(tok), 32)
	if msg := parseNumberMismatch(tok, want, err, pad); msg != "" {
		t.Error(msg)
	}
}

// TestParseNumberEveryUnitFloat32 holds parseNumber to
// strconv.ParseFloat(token, 32) on every float32 from 0 to 1 — the range a
// pixel has — in its shortest 'g' spelling (how clients and the benchmark
// encode) and its shortest 'e' spelling, and on the tokens at the edges of
// the fast path: midpoints of two float32s, 19- and 20-digit mantissas,
// exponents at ±22 and ±23. Asked for by name (go test -run
// 'TestParseNumberEveryUnitFloat32$' ./internal/serve, as CI does) it
// sweeps all 0x3f800001 bit patterns, split over GOMAXPROCS goroutines; as
// part of a plain go test it takes every 4099th.
func TestParseNumberEveryUnitFloat32(t *testing.T) {
	full := strings.Contains(flag.Lookup("test.run").Value.String(), "ParseNumberEveryUnitFloat32")
	pad := new([]byte)
	for _, tok := range []string{
		"0", "-0", "0.0", "-0.0", "0e5", "-0e-400", "1", "-1",
		// Exact midpoints, which the fast path hands to ParseFloat, and
		// their neighbours.
		"16777217", "1.6777217e7", "16777216", "16777218", "16777219", "33554435", "33554434",
		"9007199254740993", "9007199254740992", "9007199254740991", "0.500000029802322387695312",
		// 19 and 20 significant digits, with and without leading zeros.
		"1234567890123456789", "9999999999999999999", "12345678901234567890", "18446744073709551616",
		"0.1234567890123456789", "0.01234567890123456789", "1.2345678901234567891", "0.12345678901234567890",
		// The exponent window.
		"1e22", "1e23", "1e-22", "1e-23", "9e22", "9.999999e22", "4.5e-23", "123e20", "123e21",
		"0.0000000000000000000001", "0.00000000000000000000001", "1e00001", "1E+00022", "1e-000000000000000000022",
		"1e99999999999999999999", "1e-99999999999999999999", "1e39", "3.4028235e38", "1.4e-45", "1e-46",
	} {
		checkParseNumber(t, []byte(tok), pad)
		checkParseNumber(t, []byte("-"+tok), pad)
	}
	// Written exponents of 10000 and more, which neither parseNumber nor
	// ParseFloat accumulates past five digits, after fractions whose
	// leading zeros cancel them into the fast path's window and past it.
	for _, zeros := range []int{998, 999, 9998, 9999, 10000, 19999} {
		for _, exp := range []string{"e1000", "e10000", "e10005", "e20000", "e100000", "e99999999999", "e-10000"} {
			checkParseNumber(t, []byte("0."+strings.Repeat("0", zeros)+"1"+exp), pad)
		}
	}
	// Every byte that cannot go on a number ends a run of every length, in
	// the integer part and the fraction.
	for c := 0; c < 256; c++ {
		if c >= '0' && c <= '9' || strings.IndexByte(".eE", byte(c)) >= 0 {
			continue
		}
		for n := 1; n <= 17; n++ {
			for _, lead := range []string{"", "0."} {
				tok := []byte(lead + "12345678901234567"[:n])
				in := append(append([]byte(nil), tok...), byte(c))
				in = append(in, "12345678"...)
				want, _ := strconv.ParseFloat(string(tok), 32)
				if got, next := parseNumber(in, 0); next != len(tok) || got != float32(want) {
					t.Errorf("parseNumber(%q) = (%v, %d), want (%v, %d)", in, got, next, float32(want), len(tok))
				}
			}
		}
	}
	// Decimals near midpoints, 1 to 17 digits, where a float64 may round
	// onto the midpoint itself.
	r := rng.New(34)
	for k := 0; k < 20000; k++ {
		lo := math.Float32frombits(uint32(r.Intn(0x7f000000-0x0c000000) + 0x0c000000)) // 1e-31 … 1.7e38
		mid := (float64(lo) + float64(math.Nextafter32(lo, 2*lo))) / 2
		for prec := 0; prec < 17; prec++ {
			checkParseNumber(t, strconv.AppendFloat(nil, mid, 'e', prec, 64), pad)
		}
	}
	if t.Failed() {
		return
	}

	stride := uint32(4099)
	if full {
		stride = 1
	}
	workers := uint32(runtime.GOMAXPROCS(0))
	var failures atomic.Int64
	var wg sync.WaitGroup
	for w := uint32(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var g, e, pad []byte
			for b := w * stride; b <= 0x3f800000 && failures.Load() < 10; b += workers * stride {
				f := float64(math.Float32frombits(b))
				g = strconv.AppendFloat(g[:0], f, 'g', -1, 32)
				// The two spellings are one decimal, so ParseFloat reads the
				// 'g' one for both; below 1e-4 'g' is the 'e' form already.
				want, err := strconv.ParseFloat(string(g), 32)
				toks := [][]byte{g}
				if bytes.IndexByte(g, 'e') < 0 {
					e = strconv.AppendFloat(e[:0], f, 'e', -1, 32)
					toks = append(toks, e)
				}
				for _, tok := range toks {
					if msg := parseNumberMismatch(tok, want, err, &pad); msg != "" {
						t.Error(msg)
						failures.Add(1)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkScanClassify decodes 64 clean FashionMNIST renders spelled as
// the benchmark's clients spell them (shortest 'g' digits that read back
// as the same float32), rotating through the bodies.
func BenchmarkScanClassify(b *testing.B) {
	bodies := make([][]byte, 64)
	size := 0
	for i := range bodies {
		px := dataset.RenderSample(dataset.FashionMNIST, i%dataset.NumClasses, false, rng.New(uint64(i)+1))
		body := []byte(`{"pixels":[`)
		for j, v := range px {
			if j > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, float64(v), 'g', -1, 32)
		}
		bodies[i] = append(body, "]}"...)
		size += len(bodies[i])
	}
	b.SetBytes(int64(size / len(bodies)))
	var px [dataset.Pixels]float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, _, ok := scanClassify(bodies[i%len(bodies)], &px); !ok || n != dataset.Pixels {
			b.Fatalf("body %d: scanClassify = (%d, %v)", i%len(bodies), n, ok)
		}
	}
}

// Measured 6 and 41 on go1.24 linux/amd64; the budgets leave one of slack.
// Not held under -race, where sync.Pool drops a share of its Puts and the
// count wanders past any fixed budget.
const (
	jsonAllocBudget = 7
	pngAllocBudget  = 42
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
// hex floats and digit separators; parseNumber falls back to it, so the
// JSON grammar check in front of it is what keeps them out.
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

// TestPNGContentTypeSpellings: a PNG body is decoded as PNG whatever the
// case of its media type and whatever parameters follow it.
func TestPNGContentTypeSpellings(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	gray := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
	for i, v := range serveEasyImage(6) {
		gray.Pix[i] = uint8(v * 255)
	}
	var body bytes.Buffer
	if err := png.Encode(&body, gray); err != nil {
		t.Fatal(err)
	}
	for _, ct := range []string{"image/png", "Image/PNG", "image/png; charset=binary", " IMAGE/png ;q=1"} {
		rec := serveBody(context.Background(), s, body.Bytes(), map[string]string{"Content-Type": ct})
		if rec.Code != http.StatusOK {
			t.Errorf("Content-Type %q: status %d (%s)", ct, rec.Code, rec.Body)
		}
	}
	for _, ct := range []string{"image/pngx", "image/jpeg", "application/json", ""} {
		if isPNGType(ct) {
			t.Errorf("Content-Type %q taken for image/png", ct)
		}
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
// channel, the two header values and, for PNG, compress/flate's Huffman
// link tables, which it builds afresh for every dynamic block, and the
// zlib reader's adler-32.
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
