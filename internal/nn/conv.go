package nn

import (
	"fmt"
	"slices"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Conv2D is a 2-D convolution over rows interpreted as C×H×W volumes,
// implemented as im2col + GEMM. The weight has shape
// (OutC, InC*KH*KW) and the bias (OutC).
//
// Training lowers a conv the way a compiled plan does: the whole batch
// expands into one column matrix, ColRows × n·ColCols with sample i in
// columns [i·ColCols, (i+1)·ColCols), and each pass is one product over it.
// Everything runs on the calling goroutine.
type Conv2D struct {
	LayerName string
	Dims      tensor.ConvDims
	OutC      int
	W, B      *Param

	// lastN is the batch size of the Forward that Backward has not yet
	// consumed, 0 when there is none.
	lastN int
	// The training scratch, grown by the first Forward and reused by every
	// step after it; a network that is only served holds none. cols is the
	// batch's column matrix, and after dW has read it Backward's dcol = Wᵀ·g
	// (the same shape). g is the channel-major output gradient
	// (OutC × n·ColCols), and Forward's channel-major product before it.
	cols, g []float32
	pack    tensor.PackScratch
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
		W:         &Param{Name: name + "/W", Value: w},
		B:         &Param{Name: name + "/b", Value: tensor.New(outC)},
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

// Forward convolves every sample in the batch: one im2col expansion of the
// whole batch, one GEMM with the per-channel bias in its epilogue, and a
// regroup copy to sample-major rows.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != c.InSize() {
		panic(fmt.Sprintf("conv %s: input shape %v, want (N, %d)", c.LayerName, x.Shape, c.InSize()))
	}
	n := x.Shape[0]
	colRows, batchCols := c.Dims.ColRows(), n*c.Dims.ColCols()
	c.cols = slices.Grow(c.cols[:0], colRows*batchCols)[:colRows*batchCols]
	c.g = slices.Grow(c.g[:0], c.OutC*batchCols)[:c.OutC*batchCols]
	c.im2col(x.Data, c.cols, n)
	tensor.GEMMEpilogue(c.W.Value.Data, c.cols, c.g, c.OutC, colRows, batchCols,
		tensor.Epilogue{RowBias: c.B.Value.Data}, &c.pack)
	y := tensor.New(n, c.OutC*c.Dims.ColCols())
	c.scatter(c.g, y.Data, n)
	c.lastN = n
	return y
}

// im2col expands the n samples of the flattened batch in into their column
// windows of the batch column matrix col.
func (c *Conv2D) im2col(in, col []float32, n int) {
	inSize, colCols := c.InSize(), c.Dims.ColCols()
	for i := 0; i < n; i++ {
		tensor.Im2ColInto(in[i*inSize:(i+1)*inSize], c.Dims, col, n*colCols, i*colCols)
	}
}

// scatter writes the n samples of the channel-major matrix src
// (OutC × n·ColCols) into sample-major rows of dst — a pure regroup copy,
// the bias having been fused into the GEMM. gather is its inverse.
func (c *Conv2D) scatter(src, dst []float32, n int) {
	colCols := c.Dims.ColCols()
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			off := (oc*n + i) * colCols
			copy(dst[(i*c.OutC+oc)*colCols:], src[off:off+colCols])
		}
	}
}

// gather regroups the n sample-major rows of src into the channel-major
// matrix dst (OutC × n·ColCols).
func (c *Conv2D) gather(src, dst []float32, n int) {
	colCols := c.Dims.ColCols()
	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			off := (i*c.OutC + oc) * colCols
			copy(dst[(oc*n+i)*colCols:], src[off:off+colCols])
		}
	}
}

// Backward accumulates the parameter gradients (backwardParams) and returns
// the input gradient: dcol = Wᵀ·g, one product over the whole batch, written
// over the column matrix and scattered back to image space sample by
// sample. Each Backward consumes one Forward.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n := c.backwardParams(grad)
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	batchCols := n * colCols
	dcol := c.cols
	tensor.MatMulTransAInto(tensor.FromSlice(dcol, colRows, batchCols), c.W.Value,
		tensor.FromSlice(c.g, c.OutC, batchCols), &c.pack)
	dx := tensor.New(n, c.InSize())
	for i := 0; i < n; i++ {
		tensor.Col2ImFrom(dx.Data[i*c.InSize():(i+1)*c.InSize()], c.Dims, dcol, batchCols, i*colCols)
	}
	return dx
}

// backwardParams is the parameter half of Backward, and consumes the
// Forward as Backward does: it regroups grad channel-major into g, then
// accumulates dW += g·colsᵀ, one product over the whole batch, and db += the
// row sums of g. It returns the batch size. A network's first layer stops
// here (Sequential.BackwardParams): nothing reads its input gradient.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) int {
	n := c.lastN
	if n == 0 {
		panic(fmt.Sprintf("conv %s: Backward without a Forward to consume", c.LayerName))
	}
	c.lastN = 0
	outWidth := c.OutC * c.Dims.ColCols()
	if len(grad.Shape) != 2 || grad.Shape[0] != n || grad.Shape[1] != outWidth {
		panic(fmt.Sprintf("conv %s: grad shape %v, want (%d, %d)", c.LayerName, grad.Shape, n, outWidth))
	}
	colRows, batchCols := c.Dims.ColRows(), n*c.Dims.ColCols()
	c.gather(grad.Data, c.g, n)
	g := tensor.FromSlice(c.g, c.OutC, batchCols)
	tensor.MatMulTransBAcc(c.W.Grad(), g, tensor.FromSlice(c.cols, colRows, batchCols), &c.pack)
	db := c.B.Grad().Data
	for oc := range c.OutC {
		var s float32
		for _, v := range c.g[oc*batchCols : (oc+1)*batchCols] {
			s += v
		}
		db[oc] += s
	}
	return n
}
