package models

import (
	"fmt"

	"cbnet/internal/nn"
)

// Plan construction for the shipped networks. Every model in this package
// is a Sequential of plan-compilable layers, so nn.Compile works directly;
// CompilePlan pins that property for the autoencoder with a model-specific
// error label. Compiled plans read the model's parameters rather than
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
