package core

import (
	"fmt"
	"io"

	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/train"
)

// SystemConfig controls the end-to-end training workflow that produces all
// evaluated models for one dataset family. Every stage trains with Adam at
// train.LR in batches of train.BatchSize; BranchyNet starts from the paper's
// exit threshold for the family (models.DefaultThreshold) and weighs its
// joint loss by models.BranchWeight and models.MainWeight; the autoencoder
// is Table I's with a sigmoid output and the paper's L1 coefficient
// (models.NewTableIAE).
type SystemConfig struct {
	Family dataset.Family
	// Stage epoch counts.
	LeNetEpochs, BranchyEpochs, AEEpochs int
	// MaxAccuracyDrop bounds the accuracy loss tolerated while tuning the
	// exit threshold for maximum exit rate (0 selects 0.01).
	MaxAccuracyDrop float64
	Seed            uint64
	Log             io.Writer
}

// DefaultSystemConfig returns settings tuned for the reproduction's default
// 6000-image training sets.
func DefaultSystemConfig(f dataset.Family) SystemConfig {
	return SystemConfig{
		Family:        f,
		LeNetEpochs:   4,
		BranchyEpochs: 4,
		AEEpochs:      8,
	}
}

func (c *SystemConfig) validate() error {
	if c.LeNetEpochs <= 0 || c.BranchyEpochs <= 0 || c.AEEpochs <= 0 {
		return fmt.Errorf("core: non-positive stage epochs %+v", c)
	}
	return nil
}

// System bundles every trained model the evaluation compares.
type System struct {
	Family      dataset.Family
	LeNet       *nn.Sequential
	Branchy     *models.BranchyNet
	Lightweight *nn.Sequential
	CBNet       *Pipeline
	// EasyLabels records the BranchyNet-derived easy/hard split of the
	// training set (true = exited early = easy).
	EasyLabels []bool
	// TrainExitRate is the early-exit rate observed on the training set.
	TrainExitRate float64
}

// indexRange returns the integers [lo, hi).
func indexRange(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// TrainSystem runs the complete workflow of Fig. 4:
//
//  1. train the LeNet baseline;
//  2. jointly train BranchyNet-LeNet;
//  3. label the training set easy/hard by BranchyNet's exits;
//  4. build conversion pairs (input → random easy image of the same class)
//     and train the converting autoencoder on them;
//  5. extract the lightweight classifier and assemble the CBNet pipeline.
func TrainSystem(std dataset.Standard, cfg SystemConfig) (*System, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed ^ 0xCB11E7)

	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format, args...)
		}
	}

	// Stage 1: LeNet baseline.
	logf("== stage 1: LeNet baseline (%d epochs)\n", cfg.LeNetEpochs)
	lenet := models.NewLeNet(r.Split())
	if _, err := train.Classifier(lenet, std.Train, train.Config{
		Epochs: cfg.LeNetEpochs, Seed: cfg.Seed + 1, Log: cfg.Log,
	}); err != nil {
		return nil, fmt.Errorf("core: training LeNet: %w", err)
	}

	// Stage 2: BranchyNet joint training. A held-out slice of the training
	// set (≈15%) is reserved for exit-threshold tuning: tuning on data the
	// branch was trained on always accepts the loosest threshold, because
	// the branch is confidently correct on samples it has memorized. Below
	// 40 images there is nothing to spare, and both use the whole set.
	logf("== stage 2: BranchyNet joint training (%d epochs)\n", cfg.BranchyEpochs)
	branchyTrain, tuneSet := std.Train, std.Train
	if std.Train.Len() >= 40 {
		cut := std.Train.Len() * 85 / 100
		branchyTrain = std.Train.Select(indexRange(0, cut))
		tuneSet = std.Train.Select(indexRange(cut, std.Train.Len()))
	}
	branchy := models.NewBranchyLeNet(r.Split(), models.DefaultThreshold(cfg.Family))
	if err := branchy.TrainJointly(branchyTrain, train.Config{
		Epochs: cfg.BranchyEpochs, Seed: cfg.Seed + 2, Log: cfg.Log,
	}); err != nil {
		return nil, fmt.Errorf("core: training BranchyNet: %w", err)
	}

	// Stage 2.5: exit-threshold tuning for maximum performance (§IV-B1:
	// "thresholds were tuned to achieve the maximum performance for
	// BranchyNet"), on the held-out slice. It adapts the paper's constants
	// to the reproduction's smaller training runs.
	drop := cfg.MaxAccuracyDrop
	if drop == 0 {
		drop = 0.01
	}
	tuned := branchy.TuneThreshold(tuneSet, drop)
	logf("== stage 2.5: exit threshold tuned to %.3f nats (held-out n=%d)\n", tuned, tuneSet.Len())

	// Stage 3: easy/hard labelling via early exits (Fig. 4).
	res := branchy.InferDataset(std.Train)
	easy := res.Exited
	nEasy := 0
	for _, e := range easy {
		if e {
			nEasy++
		}
	}
	exitRate := float64(nEasy) / float64(std.Train.Len())
	logf("== stage 3: easy/hard labelling: %.2f%% exit early\n", 100*exitRate)

	// Stage 4: conversion pairs and autoencoder training.
	inputs, targets, err := BuildConversionPairs(std.Train, res, r.Split())
	if err != nil {
		return nil, fmt.Errorf("core: building conversion pairs: %w", err)
	}
	ae := models.NewTableIAE(cfg.Family, r.Split())
	logf("== stage 4: converting autoencoder (%d epochs, bottleneck %d)\n", cfg.AEEpochs, ae.BottleneckWidth())
	if _, err := train.Regressor(ae.Net, inputs, targets, train.Config{
		Epochs: cfg.AEEpochs, Seed: cfg.Seed + 3, Log: cfg.Log,
	}); err != nil {
		return nil, fmt.Errorf("core: training autoencoder: %w", err)
	}

	// Stage 5: assemble CBNet.
	light := models.ExtractLightweight(branchy)
	logf("== stage 5: CBNet assembled\n")
	return &System{
		Family:        cfg.Family,
		LeNet:         lenet,
		Branchy:       branchy,
		Lightweight:   light,
		CBNet:         &Pipeline{AE: ae, Classifier: light},
		EasyLabels:    easy,
		TrainExitRate: exitRate,
	}, nil
}
