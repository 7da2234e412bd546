package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// encodeJSON is what writeJSON sends for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestReplyByteParity holds the hand-written /classify encoders to the
// bytes encoding/json writes for the same values.
func TestReplyByteParity(t *testing.T) {
	floats := []float64{0, 1, -1, 0.5, 1e-7, -1e-7, 9.99e-7, 1e-6, 1e20, 1e21, 1.5e300, 123456789.125, 0.1 + 0.2,
		5e-324, math.MaxFloat64, 0.2871, 8.957638345349782, math.Copysign(0, -1)}
	for _, f := range floats {
		resp := ClassifyResponse{
			RequestID: math.MaxUint64, Class: -3, Route: "easy", Hardness: f, BatchSize: 32,
			ModelLatencyMS: f / 3, WallLatencyMS: -f, EnergyEstimateMJ: f / 7, QueueWaitMS: f,
		}
		if got, want := appendClassifyResponse(nil, &resp), encodeJSON(t, resp); !bytes.Equal(got, want) {
			t.Errorf("hardness %v:\n got %s\nwant %s", f, got, want)
		}
	}

	converted := []float32{0, 1, 0.5, 1e-7, 9.99e-7, 1e-6, 1e21, 1e20, 0.1, 0.77777, math.MaxFloat32, math.SmallestNonzeroFloat32, -0.25}
	resp := ClassifyResponse{RequestID: 1, Route: "hard", Converted: converted}
	if got, want := appendClassifyResponse([]byte("stale")[:0], &resp), encodeJSON(t, resp); !bytes.Equal(got, want) {
		t.Errorf("converted:\n got %s\nwant %s", got, want)
	}
	resp.Converted = []float32{} // omitempty drops an empty slice as well as a nil one
	if got, want := appendClassifyResponse(nil, &resp), encodeJSON(t, resp); !bytes.Equal(got, want) {
		t.Errorf("empty converted:\n got %s\nwant %s", got, want)
	}

	for _, s := range []string{
		"", "easy", "engine overloaded, retry later", `got 3 pixels, want 784`,
		`invalid X-CBNet-Deadline-Ms header "1\\x": want a positive millisecond count`,
		"decoding json: invalid character '<' looking for beginning of value", "a&b>c", "tab\there", "nul\x00", "del\x7f",
		"caf\u00e9", "line\u2028sep\u2029", "bad\xffutf8", "\U0001F600",
	} {
		resp := ClassifyResponse{RequestID: 9, Route: s}
		if got, want := appendClassifyResponse(nil, &resp), encodeJSON(t, resp); !bytes.Equal(got, want) {
			t.Errorf("route %q:\n got %s\nwant %s", s, got, want)
		}
		// The error body was a map, which encoding/json writes in key order.
		want := encodeJSON(t, map[string]any{"error": s, "requestId": uint64(9)})
		if got := appendErrorBody(nil, 9, s); !bytes.Equal(got, want) {
			t.Errorf("error %q:\n got %s\nwant %s", s, got, want)
		}
	}
}
