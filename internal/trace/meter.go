package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Meter aggregates cumulative per-(plan, step) statistics across all the
// recorders of one serving process — the data behind the /metrics per-step
// series and the cbnet-bench profiling table. Ring recorders answer "what
// just happened"; the meter answers "where has the time gone since start".
//
// StepStats handles are created once at plan-attach time (cold path, under
// the meter's mutex) and shared by every plan compiled for the same
// network, so per-worker plans all fold into one series. Observations are
// plain atomic adds: lock-free and allocation-free on the hot path.
type Meter struct {
	mu     sync.Mutex
	series []*StepStats
	index  map[stepKey]*StepStats
}

type stepKey struct {
	scope, plan, step string
}

// NewMeter builds an empty meter.
func NewMeter() *Meter {
	return &Meter{index: make(map[stepKey]*StepStats)}
}

// StepStats is the cumulative account of one plan step. The FLOP/byte
// fields are the compile-time cost model (per image, plus the fixed
// per-execution parameter traffic); the atomic counters accumulate actual
// executions.
type StepStats struct {
	// Scope separates otherwise-identical series, e.g. the engine route
	// ("easy"/"hard") a worker's plans execute under. Empty for unscoped
	// use (profiling loops, direct pipeline calls).
	Scope string
	Plan  string
	Step  string
	Index int

	// FLOPsPerImage is the modelled work per sample.
	FLOPsPerImage int64
	// BytesPerImage is the modelled activation traffic per sample.
	BytesPerImage int64
	// FixedBytes is the modelled parameter traffic per execution,
	// independent of batch size.
	FixedBytes int64

	execs  atomic.Int64
	ns     atomic.Int64
	images atomic.Int64
}

// Step returns the shared stats handle for (scope, plan, step), creating it
// on first use. The scope — typically the engine route the plan executes
// under, "" for unscoped use — lets the route-labelled /metrics series tell
// identical plans on different routes apart. Cold path only. A nil meter
// returns nil, which Observe tolerates.
func (m *Meter) Step(scope, plan, step string, index int, flopsPerImage, bytesPerImage, fixedBytes int64) *StepStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := stepKey{scope, plan, step}
	if s, ok := m.index[k]; ok {
		return s
	}
	s := &StepStats{
		Scope: scope, Plan: plan, Step: step, Index: index,
		FLOPsPerImage: flopsPerImage, BytesPerImage: bytesPerImage, FixedBytes: fixedBytes,
	}
	m.index[k] = s
	m.series = append(m.series, s)
	return s
}

// Observe folds one execution of the step over n images taking ns
// nanoseconds. Lock-free; nil-safe.
func (s *StepStats) Observe(ns int64, n int) {
	if s == nil {
		return
	}
	s.execs.Add(1)
	s.ns.Add(ns)
	s.images.Add(int64(n))
}

// StepSnapshot is a point-in-time read of one step's cumulative series.
type StepSnapshot struct {
	Scope  string
	Plan   string
	Step   string
	Index  int
	Execs  int64
	Images int64
	Nanos  int64
	FLOPs  int64 // Images × FLOPsPerImage
	Bytes  int64 // Images × BytesPerImage + Execs × FixedBytes
}

// GFLOPS returns the cumulative achieved compute rate.
func (s StepSnapshot) GFLOPS() float64 {
	if s.Nanos <= 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Nanos)
}

// Intensity returns the cumulative modelled arithmetic intensity
// (FLOPs/byte).
func (s StepSnapshot) Intensity() float64 {
	if s.Bytes <= 0 {
		return 0
	}
	return float64(s.FLOPs) / float64(s.Bytes)
}

// Snapshot returns every step series ordered by plan name, step index,
// then scope — the stable order both /metrics and the profiling table
// render in.
func (m *Meter) Snapshot() []StepSnapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	series := append([]*StepStats(nil), m.series...)
	m.mu.Unlock()
	out := make([]StepSnapshot, 0, len(series))
	for _, s := range series {
		execs, images, ns := s.execs.Load(), s.images.Load(), s.ns.Load()
		out = append(out, StepSnapshot{
			Scope: s.Scope, Plan: s.Plan, Step: s.Step, Index: s.Index,
			Execs: execs, Images: images, Nanos: ns,
			FLOPs: images * s.FLOPsPerImage,
			Bytes: images*s.BytesPerImage + execs*s.FixedBytes,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Plan != out[j].Plan {
			return out[i].Plan < out[j].Plan
		}
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].Scope < out[j].Scope
	})
	return out
}
