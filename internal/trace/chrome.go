package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// Chrome trace-event rendering: the /debug/trace endpoint dumps recent
// spans in the trace-event JSON format that chrome://tracing and Perfetto
// (ui.perfetto.dev) open directly. Each recorder becomes one named thread
// track, each span one complete ("X") event with its cost model (plan steps)
// or HTTP status (request outcomes) in args. This is the only span renderer:
// a flight dump embeds the same document. Rendering is a cold path;
// allocation here is fine.

// Track is one recorder's snapshot labelled for display.
type Track struct {
	Name  string
	Spans []Span
}

// chromeEvent is one trace-event entry. Timestamps and durations are in
// microseconds per the format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the tracks as a Chrome trace-event JSON document.
// Spans within a track are emitted oldest-first; tracks are emitted in the
// given order with thread-name metadata so Perfetto labels them.
func WriteChrome(w io.Writer, tracks []Track) error {
	doc := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for tid, tr := range tracks {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": tr.Name},
		})
		spans := append([]Span(nil), tr.Spans...)
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for _, s := range spans {
			args := map[string]any{
				"id":    s.ID,
				"batch": s.Batch,
			}
			if s.Ref != 0 {
				args["ref"] = s.Ref
			}
			name := s.Name.String()
			switch {
			case s.Kind == KindPlanStep:
				args["step"] = s.Step
				args["flops"] = s.FLOPs
				args["bytes"] = s.Bytes
				args["gflops"] = s.GFLOPS()
				args["intensity"] = s.Intensity()
			case s.Kind >= KindAdmit: // the request outcomes, declared last
				args["status"] = s.Step
				if s.Name == 0 { // no route answered
					name = s.Kind.String()
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: name,
				Cat:  s.Kind.String(),
				Ph:   "X",
				TS:   float64(s.Start) / 1e3,
				Dur:  float64(s.Dur) / 1e3,
				PID:  1,
				TID:  tid,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
