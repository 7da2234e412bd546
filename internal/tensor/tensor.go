// Package tensor implements the dense float32 tensor engine underlying the
// CBNet reproduction: shape/stride algebra, elementwise kernels, reductions,
// a cache-blocked goroutine-parallel GEMM, and the im2col/col2im transforms
// that turn convolutions into matrix multiplies.
//
// Tensors are row-major and always own contiguous storage. The package
// deliberately has no notion of autodiff; gradients are computed by the
// layers in internal/nn, which call back into these kernels.
package tensor

import (
	"fmt"
	"math"

	"cbnet/internal/rng"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data holds the elements in row-major order; len(Data) == product(Shape).
	Data []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); the caller must not alias it unexpectedly.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape sharing the same storage.
// The element count must match. A single -1 dimension is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	infer := -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dims in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	out := append([]int(nil), shape...)
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dim for reshape %v of %d elements", shape, len(t.Data)))
		}
		out[infer] = len(t.Data) / n
		n *= out[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v incompatible with %d elements", shape, len(t.Data)))
	}
	return &Tensor{Shape: out, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// AddInPlace adds o elementwise into t. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// SubInPlace subtracts o elementwise from t. Shapes must match.
func (t *Tensor) SubInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: SubInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// MulInPlace multiplies t elementwise by o (Hadamard). Shapes must match.
func (t *Tensor) MulInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: MulInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AxpyInPlace computes t += alpha*o. Shapes must match.
func (t *Tensor) AxpyInPlace(alpha float32, o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Axpy shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// Add returns a new tensor a+b.
func Add(a, b *Tensor) *Tensor {
	c := a.Clone()
	c.AddInPlace(b)
	return c
}

// Sub returns a new tensor a-b.
func Sub(a, b *Tensor) *Tensor {
	c := a.Clone()
	c.SubInPlace(b)
	return c
}

// Mul returns the elementwise product a*b.
func Mul(a, b *Tensor) *Tensor {
	c := a.Clone()
	c.MulInPlace(b)
	return c
}

// Sum returns the sum of all elements (accumulated in float64 for stability).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements; 0 for empty tensors.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// AbsSum returns the L1 norm of the elements.
func (t *Tensor) AbsSum() float64 {
	var s float64
	for _, v := range t.Data {
		s += math.Abs(float64(v))
	}
	return s
}

// SumSquares returns the squared L2 norm of the elements.
func (t *Tensor) SumSquares() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return s
}

// Max returns the maximum element. It panics on empty tensors.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element. It panics on empty tensors.
func (t *Tensor) Min() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the first maximum element in flat order.
func (t *Tensor) ArgMax() int {
	if len(t.Data) == 0 {
		panic("tensor: ArgMax of empty tensor")
	}
	best, arg := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return arg
}

// ArgMaxRows writes the flat argmax of each row of a 2-D tensor into dst,
// which must have length Shape[0]. It is the allocation-free batch variant
// of Row(i).ArgMax().
func (t *Tensor) ArgMaxRows(dst []int) {
	if len(t.Shape) != 2 {
		panic("tensor: ArgMaxRows on non-matrix")
	}
	n, w := t.Shape[0], t.Shape[1]
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: ArgMaxRows dst len %d, want %d", len(dst), n))
	}
	if w == 0 {
		panic("tensor: ArgMaxRows of empty rows")
	}
	for i := 0; i < n; i++ {
		row := t.Data[i*w : (i+1)*w]
		best, arg := row[0], 0
		for j, v := range row[1:] {
			if v > best {
				best, arg = v, j+1
			}
		}
		dst[i] = arg
	}
}

// Row returns row i of a 2-D tensor as a view (shared storage).
func (t *Tensor) Row(i int) *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Row on non-matrix")
	}
	cols := t.Shape[1]
	return &Tensor{Shape: []int{cols}, Data: t.Data[i*cols : (i+1)*cols]}
}

// Transpose returns a new transposed copy of a 2-D tensor.
func (t *Tensor) Transpose() *Tensor {
	if len(t.Shape) != 2 {
		panic("tensor: Transpose on non-matrix")
	}
	rows, cols := t.Shape[0], t.Shape[1]
	out := New(cols, rows)
	// Block the copy for cache friendliness on large matrices.
	const blk = 32
	for i0 := 0; i0 < rows; i0 += blk {
		iMax := min(i0+blk, rows)
		for j0 := 0; j0 < cols; j0 += blk {
			jMax := min(j0+blk, cols)
			for i := i0; i < iMax; i++ {
				for j := j0; j < jMax; j++ {
					out.Data[j*rows+i] = t.Data[i*cols+j]
				}
			}
		}
	}
	return out
}

// RandNormal fills t with gaussian samples of the given mean and stddev.
func (t *Tensor) RandNormal(r *rng.RNG, mean, stddev float32) {
	for i := range t.Data {
		t.Data[i] = mean + stddev*r.NormFloat32()
	}
}

// RandUniform fills t with uniform samples in [lo, hi).
func (t *Tensor) RandUniform(r *rng.RNG, lo, hi float32) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*r.Float32()
	}
}

// String renders small tensors fully and large ones by shape only.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.Shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.Shape, len(t.Data))
}
