package metrics

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (version 0.0.4) rendering for the runtime
// metrics. The writers are deliberately dependency-free: the serving stack
// hand-rolls its /metrics page from Counters, Gauges and Histograms, and
// the golden-file test in prom_test.go pins the exact format.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Labels is an ordered label set. Order is preserved in the output so
// rendering is deterministic.
type Labels []Label

// Label is one name="value" pair.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// With returns a copy of ls with extra appended.
func (ls Labels) With(extra ...Label) Labels {
	out := make(Labels, 0, len(ls)+len(extra))
	out = append(out, ls...)
	return append(out, extra...)
}

func (ls Labels) render(sb *strings.Builder) {
	if len(ls) == 0 {
		return
	}
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Name)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// formatValue renders a sample value the way Prometheus expects: shortest
// float representation, +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromWriter accumulates exposition lines. Errors are sticky: check Err
// once at the end.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the HELP and TYPE lines for a metric family.
func (p *PromWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one sample line.
func (p *PromWriter) sample(name string, labels Labels, v float64) {
	var sb strings.Builder
	sb.WriteString(name)
	labels.render(&sb)
	p.printf("%s %s\n", sb.String(), formatValue(v))
}

// Counter emits a single-sample counter family.
func (p *PromWriter) Counter(name, help string, labels Labels, v float64) {
	p.header(name, help, "counter")
	p.sample(name, labels, v)
}

// VecSample is one labelled sample within a metric family.
type VecSample struct {
	Labels Labels
	Value  float64
}

// CounterVec emits a counter family with multiple labelled samples.
func (p *PromWriter) CounterVec(name, help string, samples []VecSample) {
	p.header(name, help, "counter")
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// Gauge emits a single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, labels Labels, v float64) {
	p.header(name, help, "gauge")
	p.sample(name, labels, v)
}

// GaugeVec emits a gauge family with multiple labelled samples.
func (p *PromWriter) GaugeVec(name, help string, samples []VecSample) {
	p.header(name, help, "gauge")
	for _, s := range samples {
		p.sample(name, s.Labels, s.Value)
	}
}

// HistogramVec emits a histogram family: for each labelled histogram,
// cumulative buckets (le, per the exposition format), _sum and _count.
// scale multiplies bounds and sum on the way out — the engine's histograms
// observe milliseconds while the exposition uses base seconds, so those
// pass scale=1e-3.
func (p *PromWriter) HistogramVec(name, help string, hists []HistSample) {
	p.header(name, help, "histogram")
	for _, hs := range hists {
		scale := hs.Scale
		if scale == 0 {
			scale = 1
		}
		var cum int64
		for _, b := range hs.Hist.Buckets() {
			cum += b.Count
			le := b.UpperBound
			if !math.IsInf(le, 1) {
				le *= scale
			}
			p.sample(name+"_bucket", hs.Labels.With(L("le", formatValue(le))), float64(cum))
		}
		p.sample(name+"_sum", hs.Labels, hs.Hist.Sum()*scale)
		p.sample(name+"_count", hs.Labels, float64(hs.Hist.Count()))
	}
}

// HistSample is one labelled histogram within a family.
type HistSample struct {
	Labels Labels
	Hist   *Histogram
	// Scale multiplies bounds and sum in the exposition (0 means 1).
	Scale float64
}
