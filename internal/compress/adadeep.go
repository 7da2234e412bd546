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
	Keep     map[string]float64 // the Prune fractions it was built with
	Accuracy float64            // validation accuracy after fine-tuning
	Latency  float64            // modelled seconds/image on the target device
}

// adaDeepCandidates is the usage-driven search space: progressively more
// aggressive combinations of channel pruning and unit pruning, mirroring
// AdaDeep's exploration of compression-technique combinations under
// resource constraints. Each is the fraction of conv2, conv3 and fc1 kept
// (lenetKeep).
var adaDeepCandidates = [][3]float64{
	{1.0, 1.0, 1.0},
	{0.85, 0.8, 0.9},
	{0.7, 0.6, 0.8},
	{0.55, 0.45, 0.7},
	{0.4, 0.3, 0.6},
	{0.3, 0.2, 0.5},
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
	for i, c := range adaDeepCandidates {
		cand := fmt.Sprintf("conv2=%.2f conv3=%.2f fc1=%.2f", c[0], c[1], c[2])
		keep := lenetKeep(c[0], c[1], c[2])
		net, err := Prune(lenet, keep)
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
		res := AdaDeepResult{Net: net, Keep: keep, Accuracy: acc, Latency: lat}
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
