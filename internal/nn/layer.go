// Package nn implements the neural-network layers used by the CBNet
// reproduction: fully-connected and convolutional layers, max pooling, and
// the activation functions from the paper's Table I (relu, linear, softmax)
// plus sigmoid and the L1 activity regularizer.
//
// All layers consume and produce 2-D tensors of shape (batch, features);
// spatial layers carry their own channel/height/width geometry and interpret
// each row as a C×H×W volume. Every layer implements forward and backward
// passes explicitly (no tape autodiff): Backward receives dL/d(output),
// accumulates dL/d(param) into the layer's parameter gradients, and returns
// dL/d(input).
package nn

import (
	"fmt"
	"math"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Param is a trainable parameter with its accumulated gradient.
type Param struct {
	// Name identifies the parameter for checkpointing, e.g. "conv1/W".
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	// gen counts Touch calls: the version of Value that copies derived from
	// it (the packed weights compiled plans run on) are checked against.
	gen uint64
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Touch records that Value's elements were changed in place. Whatever writes
// a parameter after its network may have been compiled calls it — the
// optimisers and the checkpoint loader do — and compiled plans then serve
// the new values from their next Execute. A write without a Touch may be
// served stale. Like the write itself, not safe concurrently with inference.
func (p *Param) Touch() { p.gen++ }

// Layer is a differentiable network stage.
//
// Forward runs the layer on a (batch, features) input. When training is
// true, layers may cache activations needed by Backward and apply
// train-only behaviour (e.g. the activity regularizer's penalty). Backward
// must be called after a training-mode Forward with the gradient of the loss
// with respect to the layer output, and returns the gradient with respect to
// the layer input.
type Layer interface {
	Name() string
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*Param
	// OutSize returns the per-sample output width given the per-sample
	// input width, used for static shape validation when stacking layers.
	OutSize(inSize int) (int, error)
}

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	// SeqName labels the network in checkpoints and cost reports.
	SeqName string
	Layers  []Layer
}

// NewSequential builds a named layer stack.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{SeqName: name, Layers: layers}
}

// Name returns the network's label.
func (s *Sequential) Name() string { return s.SeqName }

// Forward runs all layers in order.
func (s *Sequential) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, training)
	}
	return x
}

// Backward propagates the output gradient through all layers in reverse,
// returning the gradient with respect to the network input.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutSize derives the per-sample output width of the whole stack.
func (s *Sequential) OutSize(inSize int) (int, error) {
	size := inSize
	for _, l := range s.Layers {
		var err error
		size, err = l.OutSize(size)
		if err != nil {
			return 0, fmt.Errorf("nn: %s: %w", l.Name(), err)
		}
	}
	return size, nil
}

// ZeroGrad clears all parameter gradients in the stack.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar parameters.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Len()
	}
	return n
}

// InitHe fills a weight tensor with He-normal samples: N(0, sqrt(2/fanIn)).
// It is the standard initialization for relu networks.
func InitHe(w *tensor.Tensor, fanIn int, r *rng.RNG) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	w.RandNormal(r, 0, std)
}

// InitXavier fills a weight tensor with Glorot-normal samples:
// N(0, sqrt(2/(fanIn+fanOut))), appropriate for linear/sigmoid layers.
func InitXavier(w *tensor.Tensor, fanIn, fanOut int, r *rng.RNG) {
	std := float32(math.Sqrt(2.0 / float64(fanIn+fanOut)))
	w.RandNormal(r, 0, std)
}
