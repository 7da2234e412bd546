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
// quarantine ring stores: FNV-1a over the raw float bits in four lanes
// (pixel i feeds lane i mod 4, the pixels past the last whole four lane 0),
// each its own multiply chain so the four run side by side, folded by one
// more FNV-1a round per lane. Bit-identical resubmissions of a poison pill
// collide and nothing else plausibly does. Never returns 0 (the
// quarantine's empty-slot sentinel). Zero allocs.
func Fingerprint(pixels []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := [4]uint64{offset64, offset64, offset64, offset64}
	i := 0
	for ; i+4 <= len(pixels); i += 4 {
		q := pixels[i : i+4 : i+4]
		h[0] = (h[0] ^ uint64(math.Float32bits(q[0]))) * prime64
		h[1] = (h[1] ^ uint64(math.Float32bits(q[1]))) * prime64
		h[2] = (h[2] ^ uint64(math.Float32bits(q[2]))) * prime64
		h[3] = (h[3] ^ uint64(math.Float32bits(q[3]))) * prime64
	}
	for _, v := range pixels[i:] {
		h[0] = (h[0] ^ uint64(math.Float32bits(v))) * prime64
	}
	fp := uint64(offset64)
	for _, lane := range h {
		fp = (fp ^ lane) * prime64
	}
	if fp == 0 {
		fp = 1
	}
	return fp
}
