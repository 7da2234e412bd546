package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
)

// This file provides the thread-safe runtime counters and histograms used by
// the serving-side stats surface (internal/engine). Unlike the offline
// evaluation statistics above, these are designed for concurrent updates on
// the request hot path: all mutation is lock-free atomics.

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be non-negative).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic(fmt.Sprintf("metrics: Counter.Add(%d) with negative delta", n))
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways — queue depth,
// in-flight requests. All operations are lock-free atomics.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Add moves the gauge by delta (either sign).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates float64 observations into fixed buckets. Bucket i
// counts observations v with v <= Bounds[i] (and above the previous bound);
// one extra overflow bucket catches everything larger than the last bound.
// Observe is lock-free and safe for concurrent use; the read side returns
// point-in-time snapshots that may be slightly torn under concurrent writes,
// which is acceptable for monitoring.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExponentialBounds returns n strictly increasing bounds starting at start
// and multiplying by factor, a convenient latency bucket layout.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n <= 0 {
		panic(fmt.Sprintf("metrics: invalid exponential bounds (%v, %v, %d)", start, factor, n))
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bucket is one histogram cell in a snapshot.
type Bucket struct {
	// UpperBound is +Inf for the overflow bucket.
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// bucketJSON mirrors Bucket with the bound as a string, since JSON has no
// +Inf literal. The encoding follows Prometheus's "le" label convention.
type bucketJSON struct {
	UpperBound string `json:"le"`
	Count      int64  `json:"count"`
}

// MarshalJSON encodes the upper bound as a string ("+Inf" for overflow).
func (b Bucket) MarshalJSON() ([]byte, error) {
	return json.Marshal(bucketJSON{
		UpperBound: strconv.FormatFloat(b.UpperBound, 'g', -1, 64),
		Count:      b.Count,
	})
}

// UnmarshalJSON parses the string-bound form produced by MarshalJSON.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw bucketJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	v, err := strconv.ParseFloat(raw.UpperBound, 64)
	if err != nil {
		return fmt.Errorf("metrics: bucket bound %q: %w", raw.UpperBound, err)
	}
	b.UpperBound = v
	b.Count = raw.Count
	return nil
}

// Buckets returns a snapshot of all cells, overflow last.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.bounds {
		out[i] = Bucket{UpperBound: h.bounds[i], Count: h.counts[i].Load()}
	}
	out[len(h.bounds)] = Bucket{UpperBound: math.Inf(1), Count: h.counts[len(h.bounds)].Load()}
	return out
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the containing bucket. Observations in the overflow bucket are
// attributed to the last finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum)+float64(c) >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// atomicFloat is a float64 updated with a CAS loop so Histogram stays
// lock-free.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }
