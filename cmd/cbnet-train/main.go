// Command cbnet-train runs the full CBNet training workflow (Fig. 4) for
// one dataset family and writes model checkpoints.
//
// Usage:
//
//	cbnet-train -dataset fmnist -train 6000 -test 1000 -out ./ckpt
//
// Outputs <out>/lenet.ck, <out>/branchy.ck, <out>/ae.ck plus a summary of
// accuracy, exit rate and modelled latency on the three devices.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/train"
)

func main() {
	var (
		name    = flag.String("dataset", "mnist", "dataset family: mnist, fmnist, kmnist")
		trainN  = flag.Int("train", 2000, "training-set size")
		testN   = flag.Int("test", 600, "test-set size")
		outDir  = flag.String("out", "ckpt", "checkpoint output directory")
		seed    = flag.Uint64("seed", 42, "master seed")
		epochsL = flag.Int("lenet-epochs", 0, "LeNet epochs (0 = default)")
		epochsB = flag.Int("branchy-epochs", 0, "BranchyNet epochs (0 = default)")
		epochsA = flag.Int("ae-epochs", 0, "autoencoder epochs (0 = default)")
		quiet   = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if err := run(*name, *trainN, *testN, *outDir, *seed, *epochsL, *epochsB, *epochsA, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "cbnet-train:", err)
		os.Exit(1)
	}
}

func run(name string, trainN, testN int, outDir string, seed uint64, eL, eB, eA int, quiet bool) error {
	family, err := dataset.FamilyByName(name)
	if err != nil {
		return err
	}
	std, err := dataset.LoadStandard(family, trainN, testN, seed)
	if err != nil {
		return err
	}
	cfg := core.DefaultSystemConfig(family)
	cfg.Seed = seed
	if !quiet {
		cfg.Log = os.Stderr
	}
	if eL > 0 {
		cfg.LeNetEpochs = eL
	}
	if eB > 0 {
		cfg.BranchyEpochs = eB
	}
	if eA > 0 {
		cfg.AEEpochs = eA
	}
	sys, err := core.TrainSystem(std, cfg)
	if err != nil {
		return err
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := models.SaveFile(filepath.Join(outDir, "lenet.ck"), sys.LeNet); err != nil {
		return err
	}
	if err := models.SaveBranchy(filepath.Join(outDir, "branchy.ck"), sys.Branchy); err != nil {
		return err
	}
	if err := models.SaveFile(filepath.Join(outDir, "ae.ck"), sys.CBNet.AE.Net); err != nil {
		return err
	}

	branchyAcc, exitRate := sys.Branchy.Evaluate(std.Test)
	fmt.Printf("dataset          %s (train %d / test %d, hard fraction %.2f)\n",
		family, std.Train.Len(), std.Test.Len(), std.Test.HardFraction())
	fmt.Printf("LeNet accuracy   %.2f%%\n", 100*train.EvalClassifier(sys.LeNet, std.Test))
	fmt.Printf("Branchy accuracy %.2f%% (early-exit rate %.2f%%, threshold %.3f nats)\n",
		100*branchyAcc, 100*exitRate, sys.Branchy.Threshold)
	fmt.Printf("CBNet accuracy   %.2f%%\n", 100*sys.CBNet.Accuracy(std.Test))
	for _, p := range device.All() {
		lenetLat := p.Latency(device.SequentialCost(sys.LeNet))
		branchyLat := core.BranchyLatency(p, sys.Branchy, exitRate)
		cbLat := p.Latency(sys.CBNet.Cost())
		fmt.Printf("%-13s latency: LeNet %.3fms  BranchyNet %.3fms  CBNet %.3fms (AE share %.0f%%)\n",
			p.Name, lenetLat*1e3, branchyLat*1e3, cbLat*1e3, 100*sys.CBNet.AECostShare(p))
	}
	fmt.Printf("checkpoints written to %s\n", outDir)
	return nil
}
