package nn

import (
	"fmt"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// Conv2D is a 2-D convolution over rows interpreted as C×H×W volumes. The
// weight has shape (OutC, InC*KH*KW) and the bias (OutC). A plan lowers it
// to im2col + GEMM over the whole batch — one column matrix, ColRows ×
// n·ColCols with sample i in columns [i·ColCols, (i+1)·ColCols) — or to the
// direct convolution (see runConv).
type Conv2D struct {
	LayerName string
	Dims      tensor.ConvDims
	OutC      int
	W, B      *Param
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
