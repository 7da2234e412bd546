package compress

import (
	"fmt"

	"cbnet/internal/device"
	"cbnet/internal/nn"
)

// SubFlow reproduces SubFlow's induced-subgraph strategy: at runtime, only
// a utilization-controlled subset of each layer's neurons executes so a DNN
// task finishes within a time constraint. Subnetworks are derived from the
// trained base network by importance ranking without retraining — the
// defining difference from AdaDeep's offline compression.
type SubFlow struct {
	base *nn.Sequential
	// cache maps utilization→subnet so repeated constraints are cheap.
	cache map[float64]*nn.Sequential
}

// NewSubFlow wraps a trained LeNet; it fails if base does not prune as
// one.
func NewSubFlow(base *nn.Sequential) (*SubFlow, error) {
	full, err := Prune(base, lenetKeep(1, 1, 1))
	if err != nil {
		return nil, err
	}
	return &SubFlow{base: base, cache: map[float64]*nn.Sequential{1: full}}, nil
}

// lenetKeep is the keep map of a NewLeNet network that keeps the given
// fractions of conv2's and conv3's channels and of fc1's units. conv1 (3
// channels) and the 10-way output stay whole.
func lenetKeep(conv2, conv3, fc1 float64) map[string]float64 {
	return map[string]float64{"conv2": conv2, "conv3": conv3, "fc1": fc1}
}

// NetworkAt returns the induced subgraph executing the given fraction of
// each prunable layer (conv2/conv3/fc1). Utilization 1 is the full network.
func (s *SubFlow) NetworkAt(utilization float64) (*nn.Sequential, error) {
	if utilization <= 0 || utilization > 1 {
		return nil, fmt.Errorf("compress: utilization %v outside (0,1]", utilization)
	}
	if net, ok := s.cache[utilization]; ok {
		return net, nil
	}
	net, err := Prune(s.base, lenetKeep(utilization, utilization, utilization))
	if err != nil {
		return nil, err
	}
	s.cache[utilization] = net
	return net, nil
}

// utilizationLevels are the discrete subgraph sizes SubFlow switches among.
var utilizationLevels = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// ForTimeConstraint returns the largest-utilization subnetwork whose
// modelled latency on the device meets the budget, matching SubFlow's goal
// of "fulfilling the execution of a DNN task within a time constraint".
// If even the smallest subgraph misses the budget it is returned anyway
// (best effort), with its actual latency.
func (s *SubFlow) ForTimeConstraint(profile device.Profile, budgetSeconds float64) (*nn.Sequential, float64, error) {
	if budgetSeconds <= 0 {
		return nil, 0, fmt.Errorf("compress: non-positive time budget %v", budgetSeconds)
	}
	for i := len(utilizationLevels) - 1; i >= 0; i-- {
		u := utilizationLevels[i]
		net, err := s.NetworkAt(u)
		if err != nil {
			return nil, 0, err
		}
		if profile.Latency(device.SequentialCost(net)) <= budgetSeconds || i == 0 {
			return net, u, nil
		}
	}
	panic("unreachable")
}
