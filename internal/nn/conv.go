package nn

import (
	"fmt"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Conv2D is a 2-D convolution over rows interpreted as C×H×W volumes,
// implemented as im2col + GEMM. The weight has shape
// (OutC, InC*KH*KW) and the bias (OutC).
//
// Both passes split the batch through tensor.ParallelFor. The forward pass
// gives each chunk a private im2col buffer. The backward pass cuts the batch
// into backwardChunks chunks, whatever the width, gives each chunk private
// weight/bias gradient accumulators and reduces them in chunk order: the
// classic data-parallel gradient pattern, with bits that do not depend on the
// host's core count.
type Conv2D struct {
	LayerName string
	Dims      tensor.ConvDims
	OutC      int
	W, B      *Param

	// lastInput and lastCols cache training-mode state for Backward.
	lastInput *tensor.Tensor
	lastCols  []float32 // batch of im2col matrices, one per sample

	// bwd holds the per-worker backward scratch (gradient accumulators,
	// dcol buffers, GEMM packing panels), retained across steps so the
	// training loop stops reallocating them every minibatch.
	bwd convBackward
}

// backwardChunks is how many contiguous chunks Conv2D.Backward cuts a batch
// of at least that many samples into, each with its own gradient accumulators,
// reduced in chunk order. The chunking fixes the order of the float additions
// and so the trained bits. 2 is the split the benchmark fixture was trained
// with on the 2-core reference host, when the chunk count was the core count.
// Fixing it keeps that fixture's bits and makes them every host's bits.
const backwardChunks = 2

// convBackward is the retained backward-pass scratch of one Conv2D: slot w
// belongs to chunk w of the data-parallel gradient split.
type convBackward struct {
	dWs   []*tensor.Tensor
	dBs   []*tensor.Tensor
	dcols [][]float32
	packs []tensor.PackScratch
}

// ensure grows the scratch to cover chunks slots and zeroes the gradient
// accumulators of the slots about to be used.
func (s *convBackward) ensure(chunks, outC, colRows, colCols int) {
	for len(s.dWs) < chunks {
		s.dWs = append(s.dWs, tensor.New(outC, colRows))
		s.dBs = append(s.dBs, tensor.New(outC))
		s.dcols = append(s.dcols, make([]float32, colRows*colCols))
		s.packs = append(s.packs, tensor.PackScratch{})
	}
	for w := 0; w < chunks; w++ {
		s.dWs[w].Zero()
		s.dBs[w].Zero()
	}
}

// NewConv2D creates a convolution layer. Geometry errors (kernel larger than
// the padded input and the like) are reported at construction time.
func NewConv2D(name string, inC, inH, inW, outC, kh, kw, stride, pad int, r *rng.RNG) (*Conv2D, error) {
	dims, err := tensor.NewConvDims(inC, inH, inW, kh, kw, stride, pad)
	if err != nil {
		return nil, fmt.Errorf("conv %s: %w", name, err)
	}
	if outC <= 0 {
		return nil, fmt.Errorf("conv %s: non-positive output channels %d", name, outC)
	}
	w := tensor.New(outC, dims.ColRows())
	InitHe(w, dims.ColRows(), r)
	return &Conv2D{
		LayerName: name,
		Dims:      dims,
		OutC:      outC,
		W:         &Param{Name: name + "/W", Value: w, Grad: tensor.New(outC, dims.ColRows())},
		B:         &Param{Name: name + "/b", Value: tensor.New(outC), Grad: tensor.New(outC)},
	}, nil
}

// MustConv2D is NewConv2D that panics on error, for statically-known-good
// model definitions.
func MustConv2D(name string, inC, inH, inW, outC, kh, kw, stride, pad int, r *rng.RNG) *Conv2D {
	c, err := NewConv2D(name, inC, inH, inW, outC, kh, kw, stride, pad, r)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the layer's label.
func (c *Conv2D) Name() string { return c.LayerName }

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// InSize returns the expected per-sample input width.
func (c *Conv2D) InSize() int { return c.Dims.InC * c.Dims.InH * c.Dims.InW }

// OutSize validates the input width and returns OutC*OutH*OutW.
func (c *Conv2D) OutSize(inSize int) (int, error) {
	if inSize != c.InSize() {
		return 0, fmt.Errorf("conv %s: input size %d, want %d", c.LayerName, inSize, c.InSize())
	}
	return c.OutC * c.Dims.OutH * c.Dims.OutW, nil
}

// Forward convolves every sample in the batch.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	n := x.Shape[0]
	if len(x.Shape) != 2 || x.Shape[1] != c.InSize() {
		panic(fmt.Sprintf("conv %s: input shape %v, want (N, %d)", c.LayerName, x.Shape, c.InSize()))
	}
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	outWidth := c.OutC * colCols
	y := tensor.New(n, outWidth)

	var cols []float32
	if training {
		c.lastInput = x
		cols = make([]float32, n*colRows*colCols)
		c.lastCols = cols
	}

	perSampleCost := colRows * colCols * c.OutC
	tensor.ParallelFor(n, perSampleCost, func(i0, i1 int) {
		var col []float32
		if !training {
			col = make([]float32, colRows*colCols)
		}
		for i := i0; i < i1; i++ {
			img := x.Data[i*c.InSize() : (i+1)*c.InSize()]
			buf := col
			if training {
				buf = cols[i*colRows*colCols : (i+1)*colRows*colCols]
			}
			tensor.Im2Col(img, c.Dims, buf)
			colMat := tensor.FromSlice(buf, colRows, colCols)
			out := tensor.FromSlice(y.Data[i*outWidth:(i+1)*outWidth], c.OutC, colCols)
			tensor.MatMulInto(out, c.W.Value, colMat, 1, 0)
			// Add per-channel bias across the spatial extent.
			for oc := 0; oc < c.OutC; oc++ {
				b := c.B.Value.Data[oc]
				row := out.Data[oc*colCols : (oc+1)*colCols]
				for j := range row {
					row[j] += b
				}
			}
		}
	})
	return y
}

// im2colRange expands samples [i0, i1) of the flattened batch in into their
// column windows of the batch column matrix.
func (c *Conv2D) im2colRange(in, col []float32, batchCols, i0, i1 int) {
	inSize := c.InSize()
	colCols := c.Dims.ColCols()
	for i := i0; i < i1; i++ {
		img := in[i*inSize : (i+1)*inSize]
		tensor.Im2ColInto(img, c.Dims, col, batchCols, i*colCols)
	}
}

// scatterRange writes samples [i0, i1) of the channel-major GEMM output src
// into sample-major layout in dst — a pure regroup copy, the bias having been
// fused into the GEMM.
func (c *Conv2D) scatterRange(src, dst []float32, colCols, batchCols, i0, i1 int) {
	outWidth := c.OutC * colCols
	for i := i0; i < i1; i++ {
		row := dst[i*outWidth : (i+1)*outWidth]
		for oc := 0; oc < c.OutC; oc++ {
			copy(row[oc*colCols:(oc+1)*colCols], src[oc*batchCols+i*colCols:oc*batchCols+(i+1)*colCols])
		}
	}
}

// Backward computes parameter gradients and the input gradient. Each of
// backwardChunks chunks of the batch accumulates into private dW/db buffers,
// so no locks are held inside the hot loop; tensor.ParallelFor runs the
// chunks, and the buffers are reduced serially in chunk order after it.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.lastInput == nil || c.lastCols == nil {
		panic(fmt.Sprintf("conv %s: Backward before training-mode Forward", c.LayerName))
	}
	n := grad.Shape[0]
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	outWidth := c.OutC * colCols
	if len(grad.Shape) != 2 || grad.Shape[1] != outWidth || n != c.lastInput.Shape[0] {
		panic(fmt.Sprintf("conv %s: grad shape %v, want (%d, %d)", c.LayerName, grad.Shape, c.lastInput.Shape[0], outWidth))
	}
	dx := tensor.New(n, c.InSize())

	chunks := max(1, min(backwardChunks, n))
	c.bwd.ensure(chunks, c.OutC, colRows, colCols)
	chunk := (n + chunks - 1) / chunks
	share := func(w int) {
		dW, dB := c.bwd.dWs[w], c.bwd.dBs[w]
		dcol := c.bwd.dcols[w]
		pack := &c.bwd.packs[w]
		dcolMat := tensor.FromSlice(dcol, colRows, colCols)
		for i := w * chunk; i < min((w+1)*chunk, n); i++ {
			gOut := tensor.FromSlice(grad.Data[i*outWidth:(i+1)*outWidth], c.OutC, colCols)
			col := tensor.FromSlice(c.lastCols[i*colRows*colCols:(i+1)*colRows*colCols], colRows, colCols)
			// dW += gOut · colᵀ, accumulated in place through the
			// chunk's retained packing panels.
			tensor.MatMulTransBAcc(dW, gOut, col, pack)
			// db += spatial sums of gOut
			for oc := 0; oc < c.OutC; oc++ {
				row := gOut.Data[oc*colCols : (oc+1)*colCols]
				var s float32
				for _, v := range row {
					s += v
				}
				dB.Data[oc] += s
			}
			// dcol = Wᵀ · gOut, then scatter back to image space.
			tensor.MatMulTransAInto(dcolMat, c.W.Value, gOut, pack)
			img := dx.Data[i*c.InSize() : (i+1)*c.InSize()]
			tensor.Col2Im(dcol, c.Dims, img)
		}
	}
	// Two products a sample: the dW update and dcol.
	tensor.ParallelFor(chunks, 2*chunk*colRows*colCols*c.OutC, func(w0, w1 int) {
		for w := w0; w < w1; w++ {
			share(w)
		}
	})
	for w := 0; w < chunks; w++ {
		c.W.Grad.AddInPlace(c.bwd.dWs[w])
		c.B.Grad.AddInPlace(c.bwd.dBs[w])
	}
	return dx
}
