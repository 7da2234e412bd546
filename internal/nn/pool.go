package nn

import (
	"fmt"

	"cbnet/internal/tensor"
)

// MaxPool2D applies max pooling over rows interpreted as C×H×W volumes.
// Pool windows that run off the bottom/right edge are truncated (ceil-mode
// off), matching the LeNet-style pooling in the paper's models.
type MaxPool2D struct {
	LayerName    string
	C, H, W      int
	Pool, Stride int
	OutH, OutW   int
}

// NewMaxPool2D creates a pooling layer. Stride defaults to the pool size
// when zero.
func NewMaxPool2D(name string, c, h, w, pool, stride int) (*MaxPool2D, error) {
	if stride == 0 {
		stride = pool
	}
	if c <= 0 || h <= 0 || w <= 0 || pool <= 0 || stride <= 0 {
		return nil, fmt.Errorf("maxpool %s: non-positive geometry c=%d h=%d w=%d pool=%d stride=%d", name, c, h, w, pool, stride)
	}
	if pool > h || pool > w {
		return nil, fmt.Errorf("maxpool %s: pool %d exceeds input %dx%d", name, pool, h, w)
	}
	outH := (h-pool)/stride + 1
	outW := (w-pool)/stride + 1
	return &MaxPool2D{LayerName: name, C: c, H: h, W: w, Pool: pool, Stride: stride, OutH: outH, OutW: outW}, nil
}

// MustMaxPool2D is NewMaxPool2D that panics on error.
func MustMaxPool2D(name string, c, h, w, pool, stride int) *MaxPool2D {
	p, err := NewMaxPool2D(name, c, h, w, pool, stride)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the layer's label.
func (p *MaxPool2D) Name() string { return p.LayerName }

// Params returns nil; pooling has no trainable parameters.
func (p *MaxPool2D) Params() []*Param { return nil }

// InSize returns the expected per-sample input width.
func (p *MaxPool2D) InSize() int { return p.C * p.H * p.W }

// OutSize validates the input width and returns C*OutH*OutW.
func (p *MaxPool2D) OutSize(inSize int) (int, error) {
	if inSize != p.InSize() {
		return 0, fmt.Errorf("maxpool %s: input size %d, want %d", p.LayerName, inSize, p.InSize())
	}
	return p.C * p.OutH * p.OutW, nil
}

// poolRange pools the n samples of the flattened batch x into y; when args
// is non-nil it also records the winning input index (within its sample) of
// every output element, for a training plan's backward pass.
func (p *MaxPool2D) poolRange(x, y []float32, args []int32, n int) {
	outWidth := p.C * p.OutH * p.OutW
	for i := 0; i < n; i++ {
		in := x[i*p.InSize() : (i+1)*p.InSize()]
		out := y[i*outWidth : (i+1)*outWidth]
		oi := 0
		for c := 0; c < p.C; c++ {
			plane := in[c*p.H*p.W : (c+1)*p.H*p.W]
			for oy := 0; oy < p.OutH; oy++ {
				for ox := 0; ox < p.OutW; ox++ {
					y0, x0 := oy*p.Stride, ox*p.Stride
					best := plane[y0*p.W+x0]
					bestIdx := int32(c*p.H*p.W + y0*p.W + x0)
					for ky := 0; ky < p.Pool; ky++ {
						iy := y0 + ky
						if iy >= p.H {
							break
						}
						for kx := 0; kx < p.Pool; kx++ {
							ix := x0 + kx
							if ix >= p.W {
								break
							}
							v := plane[iy*p.W+ix]
							if v > best {
								best = v
								bestIdx = int32(c*p.H*p.W + iy*p.W + ix)
							}
						}
					}
					out[oi] = best
					if args != nil {
						args[i*outWidth+oi] = bestIdx
					}
					oi++
				}
			}
		}
	}
}

// poolInfer is the plan's pooling step over n samples. The 2×2
// stride-2 window of every shipped network is tensor.MaxPool2 (a vector body
// under a vector ISA), which scans each window in poolRange's order with the
// same v > best test from the same first element, so NaN and −Inf come out
// as they do from poolRange. Any other window runs poolRange itself, keeping
// no winning index.
func (p *MaxPool2D) poolInfer(x, y []float32, n int) {
	if p.Pool != 2 || p.Stride != 2 {
		p.poolRange(x, y, nil, n)
		return
	}
	tensor.MaxPool2(y[:n*p.C*p.OutH*p.OutW], x[:n*p.InSize()], n*p.C, p.H, p.W)
}
