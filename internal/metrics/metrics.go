// Package metrics provides the prediction entropy behind BranchyNet's
// early-exit confidence measure, the lock-free counters and histograms the
// serving stack keeps, and their Prometheus text exposition.
package metrics

import "math"

// Entropy returns the Shannon entropy (nats) of a probability distribution.
// Zero-probability entries contribute zero, by the usual 0·log 0 = 0
// convention.
func Entropy(probs []float32) float64 {
	var h float64
	for _, p := range probs {
		if p > 0 {
			h -= float64(p) * math.Log(float64(p))
		}
	}
	return h
}
