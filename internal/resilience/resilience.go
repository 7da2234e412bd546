// Package resilience holds the serving stack's fault-isolation
// primitives: a per-route circuit Breaker and a poison-pill Quarantine.
// The engine wires them together with batch bisection (internal/engine) so
// that one malformed input or one failing route costs only itself — never
// its co-batch or its route's innocent traffic. A Breaker is told about
// batches, once each, and about nothing else: the re-runs bisection makes
// to find a bad input are not evidence about the route, so one poison pill
// cannot open a breaker.
//
// Everything on a request's happy path — Breaker.Observe/Allow,
// Quarantine.Check, Fingerprint — is built on atomics only: no locks, no
// heap allocations, regression-tested with AllocsPerRun the same way
// internal/slo pins Observe. State transitions (a breaker tripping open, a
// probe closing it) are cold paths and may do real work (callbacks, ring
// resets).
package resilience

import "math"

// Fingerprint hashes an input image into the 64-bit content key the
// quarantine ring stores: FNV-1a over the raw float bits, so bit-identical
// resubmissions of a poison pill collide and nothing else plausibly does.
// Never returns 0 (the quarantine's empty-slot sentinel). Zero allocs.
func Fingerprint(pixels []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range pixels {
		h ^= uint64(math.Float32bits(v))
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}
