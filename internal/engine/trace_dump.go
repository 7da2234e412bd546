package engine

import (
	"fmt"

	"cbnet/internal/trace"
)

// TraceTracks snapshots every worker's span ring — one track per worker
// goroutine of every route, carrying its recent lifecycle and plan-step
// spans. Routes and their workers are fixed at New, so the walk needs no
// lock. The serve layer renders these below its own request track
// (/debug/trace, and the same document inside a flight dump).
func (e *Engine) TraceTracks() []trace.Track {
	var out []trace.Track
	for _, rt := range e.routes {
		for i, w := range rt.workers {
			out = append(out, trace.Track{Name: fmt.Sprintf("%s/worker%d", rt.name, i), Spans: w.rec.Snapshot()})
		}
	}
	return out
}
