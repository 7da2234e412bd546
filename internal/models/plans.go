package models

import (
	"fmt"

	"cbnet/internal/nn"
)

// Plan construction for the shipped networks. Every model in this package
// is a Sequential of plan-compilable layers, so nn.Compile works directly;
// these helpers pin that property with model-specific labels and give the
// serving layer (core.Pipeline, internal/engine) one place to build its
// per-worker plans. Compiled plans read the model's parameters rather than
// copies of them, and serve their values as of the last nn.Param.Touch
// (see the weights contract in nn/plan.go).

// CompilePlan compiles the converting autoencoder's inference plan for
// batches of up to batchCap images. The L1 activity regularizer is an
// inference identity and is elided by the compiler.
func (a *ConvertingAE) CompilePlan(batchCap int) (*nn.Plan, error) {
	p, err := nn.Compile(a.Net, batchCap)
	if err != nil {
		return nil, fmt.Errorf("models: autoencoder plan: %w", err)
	}
	return p, nil
}

// CompileBranchPlan compiles the lightweight classifier path — the stem
// plus the early-exit branch, exactly the network ExtractLightweight
// returns — as one fused plan.
func (b *BranchyNet) CompileBranchPlan(batchCap int) (*nn.Plan, error) {
	p, err := nn.Compile(ExtractLightweight(b), batchCap)
	if err != nil {
		return nil, fmt.Errorf("models: branch plan: %w", err)
	}
	return p, nil
}
