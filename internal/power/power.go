// Package power implements the paper's energy models verbatim (§IV-C):
// Equation 1 for the Google Cloud instance's vCPU share of server power,
// Equation 2 (PowerPi) for the Raspberry Pi 4, and the measured-average
// path for the Nvidia K80 (the paper reads nvidia-smi; we model the
// measured averages it reports: 17.7 W CPU and 79 W GPU).
package power

import (
	"fmt"
	"math"
)

// Constants from §IV-C of the paper.
const (
	// GCI CPU power model (Eq. 1): an N1 instance with n=2 vCPUs on an
	// 18-core Intel Xeon E5-2699 v3 host whose idle/peak powers are taken
	// from Wang et al.
	GCIVCPUs     = 2
	GCIHostCores = 18
	GCIIdleWatts = 40.0
	GCIPeakWatts = 180.0
	GCIBeta      = 0.75

	// PowerPi model (Eq. 2) for the Raspberry Pi 4.
	PiIdleWatts = 2.7
	PiPeakWatts = 6.4
	PiBeta      = 1.0

	// Measured averages reported in §IV-E for the GPU platform.
	K80CPUWatts = 17.7
	K80GPUWatts = 79.0
)

// GCIPower returns Eq. 1: P = (n/N)·(Pidle + (Ppeak−Pidle)·u^β) for vCPU
// utilization u ∈ [0,1].
func GCIPower(u float64) (float64, error) {
	if u < 0 || u > 1 {
		return 0, fmt.Errorf("power: utilization %v outside [0,1]", u)
	}
	host := GCIIdleWatts + (GCIPeakWatts-GCIIdleWatts)*math.Pow(u, GCIBeta)
	return float64(GCIVCPUs) / float64(GCIHostCores) * host, nil
}

// PiPower returns Eq. 2: P = Pidle + (Ppeak−Pidle)·u^β for CPU utilization
// u ∈ [0,1].
func PiPower(u float64) (float64, error) {
	if u < 0 || u > 1 {
		return 0, fmt.Errorf("power: utilization %v outside [0,1]", u)
	}
	return PiIdleWatts + (PiPeakWatts-PiIdleWatts)*math.Pow(u, PiBeta), nil
}

// K80Power returns the GPU platform's average power draw: the CPU's
// measured 17.7 W plus the GPU's measured 79 W scaled by the fraction of
// inference time the GPU kernels are actually busy. With gpuDuty=1 this is
// the paper's fully-loaded 96.7 W; small models with launch-bound layers
// leave the GPU partially idle, which is how CBNet's power advantage on the
// K80 arises (§IV-E).
func K80Power(gpuDuty float64) (float64, error) {
	if gpuDuty < 0 || gpuDuty > 1 {
		return 0, fmt.Errorf("power: GPU duty %v outside [0,1]", gpuDuty)
	}
	return K80CPUWatts + K80GPUWatts*gpuDuty, nil
}

// Energy returns E = P·Δt in joules (§IV-C: "energy usage (E), in Joules,
// as a product of the average power (P) ... and inference latency (Δt)").
func Energy(watts, seconds float64) (float64, error) {
	if watts < 0 {
		return 0, fmt.Errorf("power: negative power %v", watts)
	}
	if seconds < 0 {
		return 0, fmt.Errorf("power: negative duration %v", seconds)
	}
	return watts * seconds, nil
}
