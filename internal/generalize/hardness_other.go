//go:build !amd64

package generalize

import "cbnet/internal/dataset"

// No vector bodies on this architecture, where tensor.VectorWidth is always
// 0: pixelStats runs goStats.
func vectorStats(int, *[dataset.Pixels]float32) (sharp, p50, p95, bg float64) {
	panic("generalize: no vector body for the hardness score on this architecture")
}
