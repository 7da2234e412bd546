package nn

import "math"

// ReLU is the rectified-linear activation, y = max(0, x). A plan fuses it
// into the epilogue of the dense or conv step before it, which zeroes v < 0
// (so −0 and NaN pass through); a training plan masks its gradient to y > 0,
// the same set as x > 0.
type ReLU struct {
	LayerName string
}

// NewReLU creates a relu activation layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name returns the layer's label.
func (r *ReLU) Name() string { return r.LayerName }

// Params returns nil; activations have no parameters.
func (r *ReLU) Params() []*Param { return nil }

// OutSize is the identity: activations preserve width.
func (r *ReLU) OutSize(inSize int) (int, error) { return inSize, nil }

// Sigmoid is the logistic activation, y = 1/(1+exp(-x)), fused like ReLU; a
// training plan takes its derivative as y(1−y).
type Sigmoid struct {
	LayerName string
}

// NewSigmoid creates a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{LayerName: name} }

// Name returns the layer's label.
func (s *Sigmoid) Name() string { return s.LayerName }

// Params returns nil.
func (s *Sigmoid) Params() []*Param { return nil }

// OutSize is the identity.
func (s *Sigmoid) OutSize(inSize int) (int, error) { return inSize, nil }

// SoftmaxRow normalizes a single row in place with the max-subtraction trick.
// The cross-entropy loss and BranchyNet's exit entropy apply it to logits.
func SoftmaxRow(row []float32) {
	maxV := row[0]
	for _, v := range row[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		row[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range row {
		row[i] *= inv
	}
}

// ActivityRegularizer is an identity layer that applies a Keras-style L1
// activity penalty to the activations flowing through it: the loss gains
// λ·Σ|a| and the backward pass adds λ·sign(a) to the gradient. The paper
// attaches this to the encoder output with λ = 1e-7 ("L1 penalty with a
// coefficient of 10e-8"). An inference plan elides it; a training plan hangs
// it on the step before it, whose output is a (TrainPlan.Penalty).
type ActivityRegularizer struct {
	LayerName string
	Lambda    float32
}

// NewActivityRegularizer creates the L1 activity-penalty layer.
func NewActivityRegularizer(name string, lambda float32) *ActivityRegularizer {
	return &ActivityRegularizer{LayerName: name, Lambda: lambda}
}

// Name returns the layer's label.
func (a *ActivityRegularizer) Name() string { return a.LayerName }

// Params returns nil.
func (a *ActivityRegularizer) Params() []*Param { return nil }

// OutSize is the identity.
func (a *ActivityRegularizer) OutSize(inSize int) (int, error) { return inSize, nil }
