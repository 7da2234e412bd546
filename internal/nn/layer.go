// Package nn implements the neural-network layers used by the CBNet
// reproduction: fully-connected and convolutional layers, max pooling, the
// relu and sigmoid activations (a linear layer is a Dense with none), and the
// L1 activity regularizer. The classifiers' softmax is not a layer: SoftmaxRow
// applies it to logits, for the loss and the early-exit entropy.
//
// A layer describes a stage — its shapes and parameters — and runs nowhere
// by itself. A Sequential of layers runs only as a compiled plan, which
// lowers it to dense, conv and pool steps with every activation fused into
// the step before it: an inference plan (Compile, Run) for serving and
// evaluation, and a training plan (CompileTraining) for the trainers, whose
// forward pass is the same steps and whose Backward walks them in reverse
// (no tape autodiff). Rows are samples: every step consumes and produces
// (batch, features) matrices, and spatial layers carry their own
// channel/height/width geometry and interpret each row as a C×H×W volume.
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

	// grad is allocated by the first Grad call: a network that is only
	// served never trains, and holds no gradient buffers.
	grad *tensor.Tensor

	// gen counts Touch calls: the version of Value that copies derived from
	// it (the packed weights compiled plans run on) are checked against.
	gen uint64
}

// Grad returns the accumulated gradient, shaped like Value, allocating it
// (zeroed) on first use. Every reader and writer of a gradient — a training
// plan's Backward, the optimiser, which zeroes it — goes through it.
func (p *Param) Grad() *tensor.Tensor {
	if p.grad == nil {
		p.grad = tensor.New(p.Value.Shape...)
	}
	return p.grad
}

// Touch records that Value's elements were changed in place. Whatever writes
// a parameter after its network may have been compiled calls it — the
// optimiser and the checkpoint loader do — and compiled plans then serve
// the new values from their next Execute. A write without a Touch may be
// served stale. Like the write itself, not safe concurrently with inference.
func (p *Param) Touch() { p.gen++ }

// Layer is a network stage: a name, its parameters and its shape. Compile
// and CompileTraining know each layer type's step.
type Layer interface {
	Name() string
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
