package compress

import (
	"fmt"
	"io"

	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/nn"
	"cbnet/internal/train"
)

// AdaDeepResult is the outcome of an AdaDeep-style compression search.
type AdaDeepResult struct {
	Net      *nn.Sequential
	Config   PruneConfig
	Accuracy float64 // validation accuracy after fine-tuning
	Latency  float64 // modelled seconds/image on the target device
}

// adaDeepCandidates is the usage-driven search space: progressively more
// aggressive combinations of channel pruning and unit pruning, mirroring
// AdaDeep's exploration of compression-technique combinations under
// resource constraints.
var adaDeepCandidates = []PruneConfig{
	{Conv2Keep: 1.0, Conv3Keep: 1.0, FC1Keep: 1.0},
	{Conv2Keep: 0.85, Conv3Keep: 0.8, FC1Keep: 0.9},
	{Conv2Keep: 0.7, Conv3Keep: 0.6, FC1Keep: 0.8},
	{Conv2Keep: 0.55, Conv3Keep: 0.45, FC1Keep: 0.7},
	{Conv2Keep: 0.4, Conv3Keep: 0.3, FC1Keep: 0.6},
	{Conv2Keep: 0.3, Conv3Keep: 0.2, FC1Keep: 0.5},
}

// AdaDeepOptions controls the search.
type AdaDeepOptions struct {
	// MinAccuracy is the validation-accuracy floor a candidate must meet.
	MinAccuracy float64
	// FinetuneEpochs of Adam after each pruning (0 disables fine-tuning).
	FinetuneEpochs int
	Seed           uint64
	Log            io.Writer
}

// AdaDeepSearch reproduces AdaDeep's behaviour for the evaluation: it
// explores compression configurations of the trained LeNet, fine-tunes each
// candidate briefly, and returns the lowest-latency network whose validation
// accuracy stays at or above the floor. If no candidate meets the floor, the
// most accurate one is returned (AdaDeep always emits a model).
func AdaDeepSearch(lenet *nn.Sequential, trainSet, valSet *dataset.Dataset, profile device.Profile, o AdaDeepOptions) (AdaDeepResult, error) {
	var best AdaDeepResult
	var fallback AdaDeepResult
	found := false
	for i, cand := range adaDeepCandidates {
		net, err := PruneLeNet(lenet, cand)
		if err != nil {
			return AdaDeepResult{}, fmt.Errorf("compress: candidate %v: %w", cand, err)
		}
		if o.FinetuneEpochs > 0 {
			if _, err := train.Classifier(net, trainSet, train.Config{
				Epochs: o.FinetuneEpochs, Seed: o.Seed + uint64(i),
			}); err != nil {
				return AdaDeepResult{}, fmt.Errorf("compress: fine-tuning %v: %w", cand, err)
			}
		}
		acc := train.EvalClassifier(net, valSet)
		lat := profile.Latency(device.SequentialCost(net))
		res := AdaDeepResult{Net: net, Config: cand, Accuracy: acc, Latency: lat}
		if o.Log != nil {
			fmt.Fprintf(o.Log, "adadeep candidate %s: acc %.4f lat %.3gms\n", cand, acc, lat*1e3)
		}
		if acc >= o.MinAccuracy && (!found || lat < best.Latency) {
			best, found = res, true
		}
		if fallback.Net == nil || acc > fallback.Accuracy {
			fallback = res
		}
	}
	if !found {
		return fallback, nil
	}
	return best, nil
}
