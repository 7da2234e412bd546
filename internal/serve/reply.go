package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
)

// The /classify bodies are written field by field with strconv, without
// reflection; reply_test.go holds them byte-equal to what encoding/json
// writes for the same values (json.Encoder.Encode, trailing newline
// included), so clients see one format whichever wrote it.

// appendClassifyResponse appends resp as its JSON document. Every float must
// be finite, as encoding/json requires.
func appendClassifyResponse(b []byte, resp *ClassifyResponse) []byte {
	b = append(b, `{"requestId":`...)
	b = strconv.AppendUint(b, resp.RequestID, 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(resp.Class), 10)
	b = append(b, `,"route":`...)
	b = appendJSONString(b, resp.Route)
	b = append(b, `,"hardness":`...)
	b = appendJSONFloat(b, resp.Hardness, 64)
	b = append(b, `,"batchSize":`...)
	b = strconv.AppendInt(b, int64(resp.BatchSize), 10)
	b = append(b, `,"modelLatencyMs":`...)
	b = appendJSONFloat(b, resp.ModelLatencyMS, 64)
	b = append(b, `,"wallLatencyMs":`...)
	b = appendJSONFloat(b, resp.WallLatencyMS, 64)
	b = append(b, `,"energyEstimateMj":`...)
	b = appendJSONFloat(b, resp.EnergyEstimateMJ, 64)
	b = append(b, `,"queueWaitMs":`...)
	b = appendJSONFloat(b, resp.QueueWaitMS, 64)
	if len(resp.Converted) > 0 {
		b = append(b, `,"converted":[`...)
		for i, v := range resp.Converted {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONFloat(b, float64(v), 32)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// appendErrorBody appends the /classify error document.
func appendErrorBody(b []byte, reqID uint64, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	b = append(b, `,"requestId":`...)
	b = strconv.AppendUint(b, reqID, 10)
	return append(b, '}', '\n')
}

// appendJSONFloat formats f the way encoding/json does: ES6 number-to-string
// cutoffs, compared at the value's own width, with the exponent unpadded.
func appendJSONFloat(b []byte, f float64, bits int) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString quotes s. Route names and most messages are printable
// ASCII with nothing to escape and are copied; any other string is encoded
// by encoding/json, whose escaping rules (HTML-safe, U+2028/9, invalid
// UTF-8) are then its own.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonContentType is shared by every reply; handlers only ever read it.
var jsonContentType = []string{"application/json"}

// writeBody sends a complete JSON body with its length, so the server
// neither chunks it nor sniffs it.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	_, _ = w.Write(body) // the client has gone; nothing to report to
}
