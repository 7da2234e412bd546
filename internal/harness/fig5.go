package harness

import (
	"fmt"
	"strings"

	"cbnet/internal/compress"
	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/train"
)

// Fig5Bar is one model bar of Fig. 5 (MNIST on the Raspberry Pi 4).
type Fig5Bar struct {
	Model       string
	LatencyMS   float64
	AccuracyPct float64
}

// Fig5 regenerates the comparison with the DNN-compression baselines:
// LeNet, BranchyNet, AdaDeep, SubFlow and CBNet on MNIST, Raspberry Pi 4.
func (r *Runner) Fig5() ([]Fig5Bar, error) {
	sys, std, err := r.System(dataset.MNIST)
	if err != nil {
		return nil, err
	}
	pi := device.RaspberryPi4()
	branchyAcc, exitRate := sys.Branchy.Evaluate(std.Test)

	lenetLat := pi.Latency(device.SequentialCost(sys.LeNet))
	lenetAcc := train.EvalClassifier(sys.LeNet, std.Test)

	// AdaDeep: automated compression search with a ~2% accuracy budget.
	ada, err := compress.AdaDeepSearch(sys.LeNet, std.Train, std.Test, pi, compress.AdaDeepOptions{
		MinAccuracy:    lenetAcc - 0.02,
		FinetuneEpochs: 1,
		Seed:           r.opts.Seed + 500,
		Log:            r.opts.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: AdaDeep: %w", err)
	}

	// SubFlow: induced subgraph under a time constraint of ~70% of LeNet,
	// without retraining — the paper's dynamic runtime regime.
	sf, err := compress.NewSubFlow(sys.LeNet)
	if err != nil {
		return nil, err
	}
	sfNet, _, err := sf.ForTimeConstraint(pi, 0.7*lenetLat)
	if err != nil {
		return nil, err
	}

	return []Fig5Bar{
		{Model: "LeNet", LatencyMS: lenetLat * 1e3, AccuracyPct: 100 * lenetAcc},
		{Model: "BranchyNet",
			LatencyMS:   core.BranchyLatency(pi, sys.Branchy, exitRate) * 1e3,
			AccuracyPct: 100 * branchyAcc},
		{Model: "AdaDeep", LatencyMS: ada.Latency * 1e3, AccuracyPct: 100 * ada.Accuracy},
		{Model: "SubFlow",
			LatencyMS:   pi.Latency(device.SequentialCost(sfNet)) * 1e3,
			AccuracyPct: 100 * train.EvalClassifier(sfNet, std.Test)},
		{Model: "CBNet",
			LatencyMS:   pi.Latency(sys.CBNet.Cost()) * 1e3,
			AccuracyPct: 100 * sys.CBNet.Accuracy(std.Test)},
	}, nil
}

// FormatFig5 renders the Fig. 5 bars.
func FormatFig5(bars []Fig5Bar) string {
	var sb strings.Builder
	sb.WriteString("Fig. 5: inference latency and accuracy, MNIST on Raspberry Pi 4\n")
	sb.WriteString("Model      | Latency (ms) | Accuracy\n")
	for _, b := range bars {
		sb.WriteString(fmt.Sprintf("%-11s| %12.3f | %6.2f%%\n", b.Model, b.LatencyMS, b.AccuracyPct))
	}
	return sb.String()
}
