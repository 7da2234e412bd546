package nn

import (
	"fmt"
	"sync/atomic"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Dense is a fully-connected layer: y = xW + b, with x of shape (batch, in),
// W of shape (in, out) and b of shape (out).
type Dense struct {
	LayerName string
	In, Out   int
	W, B      *Param

	// the last Forward's input, cached for the backward pass
	lastInput *tensor.Tensor
	// pack retains the blocked-GEMM packing panels of the backward
	// products across training steps.
	pack tensor.PackScratch
	// packedW is W in the micro-kernel's packed-B form, made by the first
	// compiled plan that needs it and shared by every plan of the network.
	packedW atomic.Pointer[packedWeights]
}

// packedWeights is one immutable packed copy of a weight matrix, keyed by
// what it was made from.
type packedWeights struct {
	key uint64
	b   tensor.PackedB
}

// packed returns W packed for the active micro-kernel. The copy depends on
// the weights (Param.Touch counts their versions) and on the kernel's
// sliver width; both go into one key, so telling that the shared copy is
// still good costs a load and one integer compare. When it is not, a fresh
// copy is packed and published for the other plans. Plans on different
// goroutines may race to repack; each publishes a complete copy and the
// last one stays.
func (d *Dense) packed() *tensor.PackedB {
	key := d.W.gen<<8 | uint64(tensor.PackedWidth())
	pw := d.packedW.Load()
	if pw == nil || pw.key != key {
		pw = &packedWeights{key: key}
		pw.b.Pack(d.W.Value.Data, d.In, d.Out)
		d.packedW.Store(pw)
	}
	return &pw.b
}

// NewDense creates a dense layer with He-initialized weights (suitable for
// the relu activations that follow dense layers throughout the paper's
// models) and zero biases.
func NewDense(name string, in, out int, r *rng.RNG) *Dense {
	w := tensor.New(in, out)
	InitHe(w, in, r)
	return &Dense{
		LayerName: name,
		In:        in,
		Out:       out,
		W:         &Param{Name: name + "/W", Value: w},
		B:         &Param{Name: name + "/b", Value: tensor.New(out)},
	}
}

// NewDenseXavier creates a dense layer with Xavier initialization, used for
// the linear-activation layers of the converting autoencoder (Table I).
func NewDenseXavier(name string, in, out int, r *rng.RNG) *Dense {
	d := NewDense(name, in, out, r)
	InitXavier(d.W.Value, in, out, r)
	return d
}

// Name returns the layer's label.
func (d *Dense) Name() string { return d.LayerName }

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// OutSize validates the input width and returns the output width.
func (d *Dense) OutSize(inSize int) (int, error) {
	if inSize != d.In {
		return 0, fmt.Errorf("dense %s: input size %d, want %d", d.LayerName, inSize, d.In)
	}
	return d.Out, nil
}

// Forward computes y = xW + b as one product with the bias added in its
// write-back, on the layer's own packing panels — the plan's lowering of a
// dense layer, unfused from its activation.
func (d *Dense) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("dense %s: input shape %v, want (N, %d)", d.LayerName, x.Shape, d.In))
	}
	d.lastInput = x
	y := tensor.New(x.Shape[0], d.Out)
	tensor.GEMMEpilogue(x.Data, d.W.Value.Data, y.Data, x.Shape[0], d.In, d.Out,
		tensor.Epilogue{ColBias: d.B.Value.Data}, &d.pack)
	return y
}

// Backward accumulates the parameter gradients (backwardParams) and returns
// dx = dy·Wᵀ. The products run through the layer's retained packing panels,
// so a training step allocates only the returned dx.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	dx := tensor.New(grad.Shape[0], d.In)
	tensor.MatMulTransBInto(dx, grad, d.W.Value, &d.pack)
	return dx
}

// backwardParams is the parameter half of Backward: dW += xᵀ·dy and
// db += Σ_batch dy, accumulated directly into the parameter gradients. A
// network's first layer stops here (Sequential.BackwardParams).
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	if d.lastInput == nil {
		panic(fmt.Sprintf("dense %s: Backward before Forward", d.LayerName))
	}
	tensor.MatMulTransAAcc(d.W.Grad(), d.lastInput, grad, &d.pack)
	grad.SumRowsInto(d.B.Grad())
}
