package serve

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"cbnet/internal/dataset"
)

// maxBodyBytes caps a /classify request body, whatever its content type. The
// cap is on the whole body: one byte more is answered 413 even when a
// complete JSON value or PNG image ends before it.
const maxBodyBytes = 1 << 20

// maxPooledBody is the largest body buffer a classifyState takes back to the
// pool, so one near-cap request does not pin a megabyte per pooled state.
const maxPooledBody = 64 << 10

// classifyState is the memory one /classify request works in: its ID and
// admission stamp (trace.Now() when the engine was handed it, 0 before), the
// raw body, the decoded image and the reply bytes. States are pooled; see
// Server.classify for when one may go back.
type classifyState struct {
	id       uint64
	admitted int64

	body   []byte
	rd     bytes.Reader // over body, for png.Decode
	pixels [dataset.Pixels]float32
	reply  []byte

	// scanPNG's inflate: the zlib reader, re-armed for each body, the
	// IDAT run it reads and the filtered rows it writes, with one byte
	// of room past them.
	zr   io.ReadCloser
	idat idatReader
	raw  [dataset.Side*pngRowBytes + 1]byte
}

var statePool = sync.Pool{New: func() any { return new(classifyState) }}

func putState(st *classifyState) {
	if cap(st.body) > maxPooledBody {
		// The readers over the body would keep it alive.
		st.body, st.rd, st.idat = nil, bytes.Reader{}, idatReader{}
	}
	statePool.Put(st)
}

// readBody reads the whole request body into st.body. A body over
// maxBodyBytes fails with *http.MaxBytesError (and, through MaxBytesReader,
// tells the server to close the connection after the reply).
func (st *classifyState) readBody(w http.ResponseWriter, r *http.Request) error {
	src := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := st.body[:0]
	// One byte of room past Content-Length lets a reader that reports EOF
	// on its own call do so without growing the buffer.
	if n := r.ContentLength; n >= int64(cap(buf)) && n <= maxBodyBytes {
		buf = make([]byte, 0, n+1)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			st.body = buf
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// decodeJSON decodes a ClassifyRequest body. Bodies of the shape clients
// send go through scanClassify into st.pixels; every other body, valid or
// not, is decoded by encoding/json, so what is accepted, what is rejected
// and with which error are encoding/json's. The returned slice aliases
// st.pixels when scanClassify took the body.
func (st *classifyState) decodeJSON() (pixels []float32, includeConverted bool, err error) {
	if n, inc, ok := scanClassify(st.body, &st.pixels); ok {
		return st.pixels[:n], inc, nil
	}
	var req ClassifyRequest
	if err := json.NewDecoder(bytes.NewReader(st.body)).Decode(&req); err != nil {
		return nil, false, fmt.Errorf("decoding json: %w", err)
	}
	return req.Pixels, req.IncludeConverted, nil
}

// scanClassify is the single-pass decoder for the canonical request: one
// object whose members are "pixels" (an array of at most 784 JSON numbers)
// and "includeConverted" (true or false), each at most once, in either
// order, with JSON whitespace anywhere between tokens. Like
// json.Decoder.Decode it stops at the closing brace and ignores what follows.
//
// It reports ok=false, never an error, for anything else — other keys,
// escapes in a key, null, nesting, a 785th pixel, a number float32 cannot
// hold, malformed input — and the caller hands the same bytes to
// encoding/json. Each number token is checked against the JSON grammar and
// converted in one pass by parseNumber, whose result has the bits of
// strconv.ParseFloat(token, 32), the call encoding/json makes, so pixels are
// bit-identical between the two decoders.
func scanClassify(b []byte, px *[dataset.Pixels]float32) (n int, includeConverted, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return 0, false, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return 0, false, true
	}
	var sawPixels, sawInclude bool
	for {
		var key []byte
		if key, i = scanKey(b, i); key == nil {
			return 0, false, false
		}
		i = skipSpace(b, i)
		if i >= len(b) || b[i] != ':' {
			return 0, false, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "pixels":
			if sawPixels {
				return 0, false, false
			}
			sawPixels = true
			if n, i = scanPixels(b, i, px); i < 0 {
				return 0, false, false
			}
		case "includeConverted":
			if sawInclude {
				return 0, false, false
			}
			sawInclude = true
			switch {
			case bytes.HasPrefix(b[i:], []byte("true")):
				includeConverted, i = true, i+4
			case bytes.HasPrefix(b[i:], []byte("false")):
				includeConverted, i = false, i+5
			default:
				return 0, false, false
			}
		default:
			return 0, false, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return 0, false, false
		}
		switch b[i] {
		case '}':
			return n, includeConverted, true
		case ',':
			i = skipSpace(b, i+1)
		default:
			return 0, false, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanKey reads a double-quoted key of plain ASCII letters at b[i] and
// returns it with the index after the closing quote, or nil for anything
// else (an escape or any other byte may spell a key encoding/json matches).
func scanKey(b []byte, i int) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return nil, i
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j:j], j + 1
		case c|0x20 < 'a' || c|0x20 > 'z':
			return nil, i
		}
	}
	return nil, i
}

// scanPixels reads an array of JSON numbers at b[i] into px and returns how
// many it read and the index after the closing bracket, or a negative index
// when the array is not one scanClassify handles. Each number is read by
// parseNumber, in one pass over its bytes.
func scanPixels(b []byte, i int, px *[dataset.Pixels]float32) (n, next int) {
	if i >= len(b) || b[i] != '[' {
		return 0, -1
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return 0, i + 1
	}
	for {
		if n == len(px) {
			return 0, -1
		}
		v, end := parseNumber(b, i)
		if end < 0 {
			return 0, -1
		}
		px[n] = v
		n++
		i = skipSpace(b, end)
		if i >= len(b) {
			return 0, -1
		}
		switch b[i] {
		case ']':
			return n, i + 1
		case ',':
			i = skipSpace(b, i+1)
		default:
			return 0, -1
		}
	}
}

// parseNumber reads the JSON number that starts at b[i] and returns the
// float32 strconv.ParseFloat(token, 32) returns for it, with the index after
// the token; the index is -1 when b[i:] does not start with a JSON number or
// ParseFloat fails on the token. The grammar is RFC 8259's:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — narrower than what
// ParseFloat accepts (inf, nan, hex, underscores, a leading plus or point),
// so those spellings are never converted from here.
//
// The pass that checks the grammar also builds the decimal mantissa and
// exponent. When the mantissa has at most 19 digits and is at most 2⁵³, and
// the exponent is within ±22, float64(mantissa) times or divided by the
// exact power 1e|exp| is the correctly rounded float64 f of the token
// (Clinger's fast path). Within that window f is zero only when the
// mantissa is, and otherwise lies inside float32's normal range (1e-22 to
// 2⁵³·1e22), never past it to ±Inf. float32(f) then has ParseFloat's bits
// unless f is itself the midpoint of two adjacent float32s: every such
// midpoint is a float64, so rounding the token to float64 cannot carry it
// across one, and f and the token round to the same float32. The midpoint
// case, every token outside the window and every token whose written
// exponent reaches 10000, where the pass stops accumulating it, go to
// ParseFloat on the same bytes.
func parseNumber(b []byte, i int) (float32, int) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	if i >= len(b) {
		return 0, -1
	}
	var mant uint64
	var digits, exp int // significant digits in mant; decimal exponent
	saturated := false
	switch c := b[i]; {
	case c == '0':
		i++
	case c >= '1' && c <= '9':
		j := i
		mant, i = readDigits(b, i, 0)
		digits = i - j
	default:
		return 0, -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if mant == 0 { // the fraction's leading zeros are not significant
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		mant, i = readDigits(b, i, mant)
		if i == frac {
			return 0, -1
		}
		digits += i - sig
		exp = frac - i
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		expNeg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			expNeg = b[i] == '-'
			i++
		}
		j, e := i, 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return 0, -1
		}
		// An exponent that reached 10000 stopped growing, so it is not the
		// token's, and a fraction with that many leading zeros could cancel
		// it back into the window.
		saturated = e >= 10000
		if expNeg {
			e = -e
		}
		exp += e
	}
	if !saturated && digits <= 19 && mant <= 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp >= 0 {
			f *= float64pow10[exp]
		} else {
			f /= float64pow10[-exp]
		}
		// The 29 bits float32 drops from a normal float64 are 1 followed
		// by 28 zeros exactly at a midpoint.
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			if neg {
				f = -f
			}
			return float32(f), i
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 32)
	if err != nil {
		return 0, -1
	}
	return float32(v), i
}

// float64pow10 holds the powers of ten a float64 holds exactly.
var float64pow10 = [23]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// readDigits reads the run of ASCII digits at b[i], appends it to mant in
// base 10 and returns the new mantissa and the index after the run. The
// mantissa wraps past 19 digits; the caller counts them.
func readDigits(b []byte, i int, mant uint64) (uint64, int) {
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	return mant, i
}

// decodePNG decodes a 28×28 PNG body into st.pixels as grayscale in [0,1].
// Bodies of the shape clients send go through scanPNG; every other body,
// valid or not, is decoded by image/png, so what is accepted, what is
// rejected and with which error are image/png's — except that a body whose
// IHDR has a valid CRC and declares another size is refused before
// anything is decoded.
func (st *classifyState) decodePNG() ([]float32, error) {
	switch ok, err := st.scanPNG(); {
	case err != nil:
		return nil, err
	case ok:
		return st.pixels[:], nil
	}
	st.rd.Reset(st.body)
	img, err := png.Decode(&st.rd)
	if err != nil {
		return nil, fmt.Errorf("decoding png: %w", err)
	}
	if err := pngToPixels(img, &st.pixels); err != nil {
		return nil, err
	}
	return st.pixels[:], nil
}

// pngSignature starts every PNG file.
const pngSignature = "\x89PNG\r\n\x1a\n"

// pngRowBytes is one row of a 28-wide 8-bit gray image as the zlib stream
// holds it: a filter byte and the row.
const pngRowBytes = 1 + dataset.Side

// scanPNG is the single-pass decoder for the PNG clients send: 8-bit
// grayscale, 28×28, not interlaced, one run of consecutive IDAT chunks whose
// zlib stream ends exactly at the run's last byte, and no PLTE or tRNS. It
// walks the chunks up to IEND, checking every CRC and skipping the chunks
// image/png ignores, then inflates the IDAT run with st.zr into st.raw,
// undoes the row filters in place and writes st.pixels. Bytes after IEND are
// ignored, as image/png ignores them.
//
// It reports ok=false and no error for any other body, and the caller hands
// the same bytes to image/png. The one body it refuses itself is one whose
// IHDR has a valid CRC and does not declare 28×28: image/png would allocate
// the whole declared image before reading a pixel of it.
func (st *classifyState) scanPNG() (ok bool, err error) {
	b := st.body
	if len(b) < len(pngSignature) || string(b[:len(pngSignature)]) != pngSignature {
		return false, nil
	}
	var sawIHDR bool
	runStart, runEnd := -1, -1 // the IDAT run: its first chunk, the index after its last
	for i := len(pngSignature); ; {
		if len(b)-i < 12 {
			return false, nil
		}
		n := binary.BigEndian.Uint32(b[i:])
		if uint64(n) > uint64(len(b)-i-12) {
			return false, nil
		}
		end := i + 12 + int(n)
		if crc32.ChecksumIEEE(b[i+4:end-4]) != binary.BigEndian.Uint32(b[end-4:]) {
			return false, nil
		}
		switch string(b[i+4 : i+8]) {
		case "IHDR":
			if sawIHDR || n != 13 {
				return false, nil
			}
			h := b[i+8 : i+8+13]
			width, height := binary.BigEndian.Uint32(h), binary.BigEndian.Uint32(h[4:])
			if width != dataset.Side || height != dataset.Side {
				return false, sizeError(int(width), int(height))
			}
			// 8-bit gray, deflate, PNG's filters, not interlaced.
			if h[8] != 8 || h[9] != 0 || h[10] != 0 || h[11] != 0 || h[12] != 0 {
				return false, nil
			}
			sawIHDR = true
		case "IDAT":
			switch {
			case !sawIHDR || runStart >= 0 && runEnd != i:
				return false, nil
			case runStart < 0:
				runStart = i
			}
			runEnd = end
		case "IEND":
			if runStart < 0 || n != 0 {
				return false, nil
			}
			return st.inflateGray(runStart, runEnd), nil
		case "PLTE", "tRNS":
			return false, nil
		}
		i = end
	}
}

// inflateGray inflates the IDAT run that spans st.body[start:end] of a
// checked 8-bit gray 28×28 body into st.raw and unfilters it into
// st.pixels. It reports false when the zlib stream is not exactly 28 rows,
// fails its adler-32, leaves IDAT bytes unread or has a row filter other
// than the five PNG defines.
func (st *classifyState) inflateGray(start, end int) bool {
	// Positioned as if at the end of a chunk whose CRC ends at start.
	st.idat = idatReader{b: st.body, i: start - 4, end: start - 4, runEnd: end}
	var err error
	if st.zr == nil {
		st.zr, err = zlib.NewReader(&st.idat)
	} else {
		err = st.zr.(zlib.Resetter).Reset(&st.idat, nil)
	}
	if err != nil {
		return false
	}
	// One byte of room past the image tells a long stream from an exact one.
	n := 0
	for err == nil && n < len(st.raw) {
		var m int
		m, err = st.zr.Read(st.raw[n:])
		n += m
	}
	if n != dataset.Side*pngRowBytes || err != io.EOF || st.idat.more() {
		return false
	}
	var zero [dataset.Side]byte
	prev := zero[:]
	for y := 0; y < dataset.Side; y++ {
		row := st.raw[y*pngRowBytes:][:pngRowBytes]
		cur := row[1:]
		if !unfilter(row[0], cur, prev) {
			return false
		}
		out := st.pixels[y*dataset.Side:][:dataset.Side]
		for x, v := range cur {
			out[x] = grayLuma[v]
		}
		prev = cur
	}
	return true
}

// unfilter undoes PNG filter f (0 none, 1 sub, 2 up, 3 average, 4 Paeth) on
// one row of one byte per pixel, given the unfiltered row above it, and
// reports false for any other filter byte.
func unfilter(f byte, cur, prev []byte) bool {
	prev = prev[:len(cur)]
	switch f {
	case 0:
	case 1:
		var left byte
		for x := range cur {
			cur[x] += left
			left = cur[x]
		}
	case 2:
		for x := range cur {
			cur[x] += prev[x]
		}
	case 3:
		var left byte
		for x := range cur {
			cur[x] += uint8((int(left) + int(prev[x])) / 2)
			left = cur[x]
		}
	case 4:
		var left, upLeft byte
		for x := range cur {
			cur[x] += paeth(left, prev[x], upLeft)
			left, upLeft = cur[x], prev[x]
		}
	default:
		return false
	}
	return true
}

// paeth is the PNG Paeth predictor of a (left), b (up) and c (up-left).
func paeth(a, b, c uint8) uint8 {
	pa := absInt(int(b) - int(c))
	pb := absInt(int(a) - int(c))
	pc := absInt(int(a) + int(b) - 2*int(c))
	switch {
	case pa <= pb && pa <= pc:
		return a
	case pb <= pc:
		return b
	}
	return c
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// idatReader reads the data of a run of consecutive IDAT chunks that
// scanPNG has checked as one stream, without the chunks' lengths, types and
// CRCs. It is an io.ByteReader, so flate reads it directly with no buffer
// of its own.
type idatReader struct {
	b      []byte
	i, end int // the next byte; the end of the current chunk's data
	runEnd int // the index after the run's last CRC
}

// more steps over exhausted chunks and reports whether any data is left.
func (r *idatReader) more() bool {
	for r.i == r.end {
		if r.end+4 == r.runEnd {
			return false
		}
		r.i = r.end + 4 + 8
		r.end = r.i + int(binary.BigEndian.Uint32(r.b[r.i-8:]))
	}
	return true
}

func (r *idatReader) ReadByte() (byte, error) {
	if r.i == r.end && !r.more() {
		return 0, io.EOF
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}

func (r *idatReader) Read(p []byte) (int, error) {
	if !r.more() {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:r.end])
	r.i += n
	return n, nil
}

// luma is the ITU-R BT.601 luma of 16-bit channels, scaled to [0,1].
func luma(r, g, b uint32) float32 {
	return float32((0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)) / 65535)
}

// grayLuma is luma for each 8-bit gray level, as color.Gray widens it to
// 16-bit channels: what the generic path computes for a *image.Gray pixel.
var grayLuma = func() (t [256]float32) {
	for v := range t {
		r, g, b, _ := color.Gray{Y: uint8(v)}.RGBA()
		t[v] = luma(r, g, b)
	}
	return t
}()

// sizeError is the answer to an image that is not 28×28.
func sizeError(w, h int) error {
	return fmt.Errorf("image is %dx%d, want %dx%d", w, h, dataset.Side, dataset.Side)
}

// pngToPixels flattens a decoded 28×28 PNG to grayscale in [0,1]. 8-bit
// gray images, the format an edge camera pipeline sends, index grayLuma;
// colour and 16-bit images go through color.Color per pixel.
func pngToPixels(img image.Image, out *[dataset.Pixels]float32) error {
	b := img.Bounds()
	if b.Dx() != dataset.Side || b.Dy() != dataset.Side {
		return sizeError(b.Dx(), b.Dy())
	}
	if g, ok := img.(*image.Gray); ok {
		for y := 0; y < dataset.Side; y++ {
			row := g.Pix[y*g.Stride:][:dataset.Side]
			for x, v := range row {
				out[y*dataset.Side+x] = grayLuma[v]
			}
		}
		return nil
	}
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bl, _ := img.At(x, y).RGBA() // 16-bit channels
			out[i] = luma(r, g, bl)
			i++
		}
	}
	return nil
}
