package serve

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/png"
	"math"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/rng"
)

// pngChunk writes one PNG chunk: length, type, data and CRC.
func pngChunk(typ string, data []byte) []byte {
	c := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
	c = append(append(c, typ...), data...)
	return binary.BigEndian.AppendUint32(c, crc32.ChecksumIEEE(c[4:]))
}

// pngChunks splits a PNG body after its signature into whole chunks, as far
// as they are whole.
func pngChunks(b []byte) [][]byte {
	var chunks [][]byte
	for i := len(pngSignature); i+12 <= len(b); {
		end := i + 12 + int(binary.BigEndian.Uint32(b[i:]))
		if end > len(b) {
			break
		}
		chunks = append(chunks, b[i:end])
		i = end
	}
	return chunks
}

// pngJoin writes a body from chunks.
func pngJoin(chunks ...[]byte) []byte {
	return append([]byte(pngSignature), bytes.Join(chunks, nil)...)
}

// pngIHDR is an IHDR chunk.
func pngIHDR(w, h uint32, depth, colorType, interlace byte) []byte {
	d := binary.BigEndian.AppendUint32(nil, w)
	d = binary.BigEndian.AppendUint32(d, h)
	return pngChunk("IHDR", append(d, depth, colorType, 0, 0, interlace))
}

// pngFromStream writes an 8-bit gray 28×28 body (interlaced or not) whose
// single IDAT is the zlib stream of raw.
func pngFromStream(raw []byte, interlace byte) []byte {
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	zw.Write(raw)
	zw.Close()
	return pngJoin(pngIHDR(dataset.Side, dataset.Side, 8, 0, interlace), pngChunk("IDAT", z.Bytes()), pngChunk("IEND", nil))
}

// pngRender is a FashionMNIST render quantised to 8-bit gray the way the
// benchmark's clients quantise it.
func pngRender(seed uint64, hard bool) *image.Gray {
	px := dataset.RenderSample(dataset.FashionMNIST, int(seed)%dataset.NumClasses, hard, rng.New(seed))
	img := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
	for i, v := range px {
		img.Pix[i] = uint8(v*255 + 0.5)
	}
	return img
}

// pngEncode is png.Encode at a compression level.
func pngEncode(img image.Image, level png.CompressionLevel) []byte {
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: level}).Encode(&buf, img); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

var pngLevels = []png.CompressionLevel{png.DefaultCompression, png.NoCompression, png.BestSpeed, png.BestCompression}

// pngResplit rewrites a body's IDAT run as chunks of at most size bytes.
func pngResplit(body []byte, size int) []byte {
	var data []byte
	var out [][]byte
	for _, c := range pngChunks(body) {
		switch string(c[4:8]) {
		case "IDAT":
			data = append(data, c[8:len(c)-4]...)
		case "IEND":
			for len(data) > 0 {
				n := min(size, len(data))
				out = append(out, pngChunk("IDAT", data[:n]))
				data = data[n:]
			}
			out = append(out, c)
		default:
			out = append(out, c)
		}
	}
	return pngJoin(out...)
}

// pngInsert puts chunk extra before the first chunk of type at.
func pngInsert(body []byte, at string, extra []byte) []byte {
	var out [][]byte
	for _, c := range pngChunks(body) {
		if string(c[4:8]) == at {
			out = append(out, extra)
		}
		out = append(out, c)
	}
	return pngJoin(out...)
}

// pngEditIDAT rewrites the data of a body's last IDAT chunk.
func pngEditIDAT(body []byte, edit func([]byte) []byte) []byte {
	chunks := pngChunks(body)
	last := -1
	for i, c := range chunks {
		if string(c[4:8]) == "IDAT" {
			last = i
		}
	}
	c := chunks[last]
	chunks[last] = pngChunk("IDAT", edit(append([]byte(nil), c[8:len(c)-4]...)))
	return pngJoin(chunks...)
}

// pngRows is a 28×28 gray stream whose every row has filter byte f and
// pseudo-random filtered bytes.
func pngRows(f byte, seed uint64) []byte {
	r := rng.New(seed)
	raw := make([]byte, 0, dataset.Side*pngRowBytes)
	for y := 0; y < dataset.Side; y++ {
		raw = append(raw, f)
		for x := 0; x < dataset.Side; x++ {
			raw = append(raw, byte(r.Intn(256)))
		}
	}
	return raw
}

// pngAdam7 is an interlaced 8-bit gray 28×28 body: seven passes of
// unfiltered rows.
func pngAdam7() []byte {
	var raw []byte
	for _, p := range [7][4]int{{8, 8, 0, 0}, {8, 8, 4, 0}, {4, 8, 0, 4}, {4, 4, 2, 0}, {2, 4, 0, 2}, {2, 2, 1, 0}, {1, 2, 0, 1}} {
		w := (dataset.Side - p[2] + p[0] - 1) / p[0]
		h := (dataset.Side - p[3] + p[1] - 1) / p[1]
		for y := 0; y < h; y++ {
			raw = append(raw, 0)
			for x := 0; x < w; x++ {
				raw = append(raw, byte(x*7+y*13))
			}
		}
	}
	return pngFromStream(raw, 1)
}

// pngIDATGap splits a body's IDAT data over two chunks with an empty
// ancillary chunk between them, which ends the run: image/png finds no
// pixel data after the first.
func pngIDATGap(body []byte) []byte {
	c := pngChunks(pngResplit(body, 400))
	return pngJoin(c[0], c[1], pngChunk("tEXt", nil), c[2], c[3])
}

// pngBomb is a body whose IHDR declares w×h at a depth and colour type,
// followed by a 100-byte IDAT.
func pngBomb(w, h uint32, depth, colorType byte) []byte {
	idat := append([]byte{0x78, 0x9c}, bytes.Repeat([]byte{0xab}, 98)...)
	return pngJoin(pngIHDR(w, h, depth, colorType, 0), pngChunk("IDAT", idat), pngChunk("IEND", nil))
}

// pngSeeds is the committed corpus of FuzzDecodePNG.
func pngSeeds() [][]byte {
	var seeds [][]byte
	for i, level := range pngLevels {
		seeds = append(seeds, pngEncode(pngRender(uint64(i)+1, true), level))
	}
	base := seeds[0]
	seeds = append(seeds, pngResplit(base, 1), pngResplit(base, 100), pngResplit(seeds[1], 100))
	text, gama := pngChunk("tEXt", []byte("Comment\x00edge camera")), pngChunk("gAMA", []byte{0, 0, 0xb1, 0x8f})
	seeds = append(seeds,
		pngInsert(base, "IDAT", text), pngInsert(base, "IDAT", gama), pngInsert(base, "IEND", text),
		pngInsert(base, "IHDR", text), pngInsert(pngResplit(base, 100), "IEND", gama),
		pngInsert(base, "IDAT", pngChunk("tRNS", []byte{0, 7})),
		pngInsert(base, "IDAT", pngChunk("PLTE", []byte{1, 2, 3})),
		pngInsert(base, "IEND", pngChunk("PLTE", []byte{1, 2, 3})),
		pngInsert(base, "IEND", pngChunk("tRNS", []byte{0, 7})),
		pngInsert(base, "IEND", pngChunk("IHDR", pngIHDR(28, 28, 8, 0, 0)[8:21])),
		pngInsert(base, "IDAT", pngChunk("IDAT", nil)),
		pngInsert(base, "IEND", pngChunk("IDAT", nil)),
		// Trailing bytes inside the last IDAT: image/png reports them only
		// past what its 4 KiB read buffer has already taken in.
		pngEditIDAT(base, func(d []byte) []byte { return append(d, 0) }),
		pngEditIDAT(base, func(d []byte) []byte { return append(d, "trailing"...) }),
		pngEditIDAT(base, func(d []byte) []byte { return append(d, make([]byte, 5000)...) }),
		// A stream one byte short of its checksum, and a wrong checksum.
		pngEditIDAT(base, func(d []byte) []byte { return d[:len(d)-1] }),
		pngEditIDAT(base, func(d []byte) []byte { d[len(d)-1] ^= 1; return d }),
		// The IDAT run broken by an empty chunk, and an interlaced header
		// over a stream of exactly 28 plain rows.
		pngIDATGap(base),
		pngFromStream(pngRows(0, 7), 1),
		// An extra IDAT after the stream ends, and bytes after IEND.
		pngInsert(base, "IEND", pngChunk("IDAT", []byte("extra"))),
		pngInsert(pngInsert(base, "IEND", text), "IEND", pngChunk("IDAT", []byte("extra"))),
		append(append([]byte(nil), base...), "after IEND"...),
		// The wrong kind of image, and the wrong size.
		pngAdam7(),
		pngEncode(image.NewGray16(image.Rect(0, 0, dataset.Side, dataset.Side)), png.DefaultCompression),
		pngEncode(image.NewPaletted(image.Rect(0, 0, dataset.Side, dataset.Side), color.Palette{color.Gray{9}, color.White}), png.DefaultCompression),
		pngEncode(image.NewRGBA(image.Rect(0, 0, dataset.Side, dataset.Side)), png.DefaultCompression),
		pngEncode(image.NewGray(image.Rect(0, 0, dataset.Side-1, dataset.Side)), png.DefaultCompression),
		pngBomb(20000, 20000, 8, 0), pngBomb(65535, 65535, 16, 6), pngBomb(0, 28, 8, 0), pngBomb(28, 28, 8, 1),
		pngBomb(1<<31, 28, 8, 0), pngBomb(28, 1000, 3, 2), pngBomb(28, 28, 8, 0),
		pngBomb(1<<30, 1<<30, 8, 0), pngBomb(1<<30, 1<<29, 8, 0), // image/png's overflow check, and just under it
		[]byte(pngSignature), []byte(pngSignature[:5]), nil, []byte("{\"pixels\":[]}"),
	)
	// Hand-built rows that force each filter, and filter byte 5.
	for f := byte(0); f <= 5; f++ {
		seeds = append(seeds, pngFromStream(pngRows(f, uint64(f)+1), 0))
	}
	mixed := pngRows(0, 9)
	for y := 0; y < dataset.Side; y++ {
		mixed[y*pngRowBytes] = byte(y % 5)
	}
	seeds = append(seeds, pngFromStream(mixed, 0), pngFromStream(mixed[:len(mixed)-1], 0), pngFromStream(append(mixed, 0), 0))
	// A bad CRC in each chunk, and truncation at each chunk boundary.
	for _, body := range [][]byte{base, pngInsert(pngResplit(base, 100), "IDAT", text)} {
		at := len(pngSignature)
		for _, c := range pngChunks(body) {
			bad := append([]byte(nil), body...)
			bad[at+len(c)-1] ^= 0x40
			seeds = append(seeds, bad, body[:at], body[:at+len(c)-1])
			at += len(c)
		}
	}
	return seeds
}

// pngHeaderSize reports the size the first IHDR of b declares when that
// chunk is whole with a valid CRC and image/png reads every chunk before
// it, which it checks by reading them ahead of a 28×28 header of its own.
func pngHeaderSize(b []byte) (w, h int, ok bool) {
	for i := len(pngSignature); i+8 <= len(b); {
		end := i + 12 + int(binary.BigEndian.Uint32(b[i:]))
		if string(b[i+4:i+8]) == "IHDR" {
			if end-i != 25 || end > len(b) || !bytes.Equal(b[i:end], pngChunk("IHDR", b[i+8:end-4])) {
				return 0, 0, false
			}
			_, err := png.DecodeConfig(bytes.NewReader(append(b[:i:i], pngIHDR(dataset.Side, dataset.Side, 8, 0, 0)...)))
			return int(binary.BigEndian.Uint32(b[i+8:])), int(binary.BigEndian.Uint32(b[i+12:])), err == nil
		}
		i = end
	}
	return 0, 0, false
}

// checkPNGAgrees is the differential oracle. What decodePNG answers must
// be what image/png and pngToPixels answer, error text and pixel bits
// alike, and a body scanPNG takes must be one image/png accepts with the
// same pixels. The one difference is the size check: a body whose IHDR has
// a valid CRC and a size other than 28×28 is answered with that size before
// image/png decodes it (nor does the oracle decode it, which would allocate
// the declared image).
func checkPNGAgrees(t *testing.T, data []byte) {
	t.Helper()
	st := &classifyState{body: data}
	took, scanErr := st.scanPNG()
	pixels, err := (&classifyState{body: data}).decodePNG()

	if cfg, cfgErr := png.DecodeConfig(bytes.NewReader(data)); cfgErr == nil && (cfg.Width != dataset.Side || cfg.Height != dataset.Side) {
		want := sizeError(cfg.Width, cfg.Height).Error()
		if scanErr == nil || scanErr.Error() != want || err == nil || err.Error() != want {
			t.Fatalf("image/png reads a %dx%d header; scanPNG = (%v, %v), decodePNG error %v\nbody %q", cfg.Width, cfg.Height, took, scanErr, err, data)
		}
		return
	}
	if scanErr != nil {
		w, h, ok := pngHeaderSize(data)
		if !ok || scanErr.Error() != sizeError(w, h).Error() || err == nil || err.Error() != scanErr.Error() {
			t.Fatalf("scanPNG refused a body whose header image/png reads as %dx%d (ok %v): %v; decodePNG error %v\nbody %q", w, h, ok, scanErr, err, data)
		}
		return
	}
	var want [dataset.Pixels]float32
	img, wantErr := png.Decode(bytes.NewReader(data))
	if wantErr != nil {
		wantErr = fmt.Errorf("decoding png: %w", wantErr)
	} else {
		wantErr = pngToPixels(img, &want)
	}
	if took && wantErr != nil {
		t.Fatalf("scanPNG took a body image/png refuses: %v\nbody %q", wantErr, data)
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("decodePNG error %v, image/png: %v\nbody %q", err, wantErr, data)
	}
	if err != nil {
		return
	}
	for i := range want {
		if math.Float32bits(pixels[i]) != math.Float32bits(want[i]) || took && math.Float32bits(st.pixels[i]) != math.Float32bits(want[i]) {
			t.Fatalf("pixel %d = %v (scanPNG took it: %v, wrote %v), image/png: %v\nbody %q", i, pixels[i], took, st.pixels[i], want[i], data)
		}
	}
}

// pngFixCRCs rewrites the CRC of every whole chunk of a body, so that a
// mutated body reaches the chunk contents and the zlib stream instead of
// stopping at its first CRC.
func pngFixCRCs(b []byte) []byte {
	b = append([]byte(nil), b...)
	for _, c := range pngChunks(b) {
		binary.BigEndian.PutUint32(c[len(c)-4:], crc32.ChecksumIEEE(c[4:len(c)-4]))
	}
	return b
}

// FuzzDecodePNG holds decodePNG to image/png on each body as it is and with
// its CRCs made right.
func FuzzDecodePNG(f *testing.F) {
	for _, s := range pngSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPNGAgrees(t, data)
		checkPNGAgrees(t, pngFixCRCs(data))
	})
}

// TestDecodePNGTakesClientBodies keeps the differential fuzz honest: the
// bodies clients send — png.Encode of an image.Gray, the benchmark's
// encoding, at every compression level, and the same streams split over
// many IDAT chunks — must be decoded by scanPNG itself, not by the
// fallback it is compared with. One state decodes them all, as a pooled
// state does, with a stream cut short between any two.
func TestDecodePNGTakesClientBodies(t *testing.T) {
	st := new(classifyState)
	check := func(name string, body []byte, img *image.Gray) {
		t.Helper()
		st.body = body
		if ok, err := st.scanPNG(); !ok || err != nil {
			t.Fatalf("%s: scanPNG = (%v, %v)", name, ok, err)
		}
		var want [dataset.Pixels]float32
		if err := pngToPixels(img, &want); err != nil {
			t.Fatal(err)
		}
		if st.pixels != want {
			t.Fatalf("%s: pixels differ from image/png's", name)
		}
	}
	for seed := uint64(1); seed <= 16; seed++ {
		img := pngRender(seed, seed%2 == 0)
		for _, level := range pngLevels {
			body := pngEncode(img, level)
			check(fmt.Sprintf("seed %d level %d", seed, level), body, img)
			check(fmt.Sprintf("seed %d level %d in 100-byte IDATs", seed, level), pngResplit(body, 100), img)
			empty := pngChunk("IDAT", nil)
			check(fmt.Sprintf("seed %d level %d between empty IDATs", seed, level), pngInsert(pngInsert(body, "IDAT", empty), "IEND", empty), img)
			st.body = pngEditIDAT(body, func(d []byte) []byte { return d[:len(d)/2] })
			if ok, err := st.scanPNG(); ok || err != nil {
				t.Fatalf("seed %d level %d cut short: scanPNG = (%v, %v)", seed, level, ok, err)
			}
		}
	}
	// And it must decline, not mis-decode, what only image/png handles.
	base := pngEncode(pngRender(1, true), png.DefaultCompression)
	for name, body := range map[string][]byte{
		"interlaced":                    pngAdam7(),
		"16-bit":                        pngEncode(image.NewGray16(image.Rect(0, 0, dataset.Side, dataset.Side)), png.DefaultCompression),
		"RGBA":                          pngEncode(image.NewRGBA(image.Rect(0, 0, dataset.Side, dataset.Side)), png.DefaultCompression),
		"tRNS":                          pngInsert(base, "IDAT", pngChunk("tRNS", []byte{0, 7})),
		"extra IDAT":                    pngInsert(base, "IEND", pngChunk("IDAT", []byte("extra"))),
		"trailing":                      pngEditIDAT(base, func(d []byte) []byte { return append(d, 0) }),
		"filter 5":                      pngFromStream(pngRows(5, 1), 0),
		"IDAT gap":                      pngIDATGap(base),
		"interlaced header, plain rows": pngFromStream(pngRows(0, 7), 1),
	} {
		st.body = body
		if ok, err := st.scanPNG(); ok || err != nil {
			t.Errorf("%s: scanPNG = (%v, %v), want a decline", name, ok, err)
		}
	}
}

// TestPNGDimensionBomb: a body of a hundred bytes that declares a huge
// image is refused from its header, with the size in the answer, before
// anything the size of the image is allocated.
func TestPNGDimensionBomb(t *testing.T) {
	s := serverWithEngineConfig(t, engine.Config{}, quietOptions)
	hdr := map[string]string{"Content-Type": "image/png"}
	for _, tc := range []struct {
		body []byte
		want string
	}{
		{pngBomb(20000, 20000, 8, 0), "image is 20000x20000, want 28x28"},
		{pngBomb(65535, 65535, 16, 6), "image is 65535x65535, want 28x28"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := serveBody(context.Background(), s, tc.body, hdr)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
			t.Errorf("%q: status %d (%s)", tc.want, rec.Code, rec.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%q: the request allocated %d bytes", tc.want, grew)
		}
	}
}

// BenchmarkDecodePNG decodes 64 degraded FashionMNIST renders encoded as
// the benchmark's clients encode them, rotating through the bodies.
func BenchmarkDecodePNG(b *testing.B) {
	bodies := make([][]byte, 64)
	size := 0
	for i := range bodies {
		bodies[i] = pngEncode(pngRender(uint64(i)+1, true), png.DefaultCompression)
		size += len(bodies[i])
	}
	b.SetBytes(int64(size / len(bodies)))
	b.ReportAllocs()
	st := new(classifyState)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.body = bodies[i%len(bodies)]
		if _, err := st.decodePNG(); err != nil {
			b.Fatalf("body %d: %v", i%len(bodies), err)
		}
	}
}
