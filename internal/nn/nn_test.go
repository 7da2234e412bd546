package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// lossOf computes a deterministic scalar pseudo-loss Σ cᵢ·yᵢ over the
// network output, whose gradient with respect to y is simply c. Running the
// net forward under small parameter perturbations then gives numerical
// derivatives to compare against Backward.
func lossOf(net Layer, x *tensor.Tensor, c []float32) float64 {
	y := net.Forward(x)
	var s float64
	for i, v := range y.Data {
		s += float64(c[i]) * float64(v)
	}
	return s
}

// checkGradients validates every parameter gradient and the input gradient
// of net at x by central finite differences.
func checkGradients(t *testing.T, net Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := rng.New(99)
	y := net.Forward(x)
	c := make([]float32, len(y.Data))
	for i := range c {
		c[i] = r.NormFloat32()
	}
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	grad := tensor.FromSlice(append([]float32(nil), c...), y.Shape...)
	dx := net.Backward(grad)

	const eps = 1e-3
	for _, p := range net.Params() {
		n := p.Value.Len()
		// Sample a handful of coordinates to keep the test fast.
		for s := 0; s < 12; s++ {
			i := r.Intn(n)
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := lossOf(net, x, c)
			p.Value.Data[i] = orig - eps
			down := lossOf(net, x, c)
			p.Value.Data[i] = orig
			num := (up - down) / (2 * eps)
			ana := float64(p.Grad().Data[i])
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %.6f numeric %.6f", p.Name, i, ana, num)
			}
		}
	}
	// Input gradient.
	for s := 0; s < 12; s++ {
		i := r.Intn(x.Len())
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := lossOf(net, x, c)
		x.Data[i] = orig - eps
		down := lossOf(net, x, c)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		ana := float64(dx.Data[i])
		if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
			t.Errorf("input[%d]: analytic %.6f numeric %.6f", i, ana, num)
		}
	}
}

func randInput(r *rng.RNG, n, w int) *tensor.Tensor {
	x := tensor.New(n, w)
	x.RandNormal(r, 0, 1)
	return x
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(1)
	d := NewDense("d", 7, 5, r)
	checkGradients(t, d, randInput(r, 3, 7), 2e-2)
}

func TestDenseForwardShape(t *testing.T) {
	r := rng.New(1)
	d := NewDense("d", 4, 6, r)
	y := d.Forward(randInput(r, 2, 4))
	if y.Shape[0] != 2 || y.Shape[1] != 6 {
		t.Fatalf("shape %v, want [2 6]", y.Shape)
	}
	if n, err := d.OutSize(4); err != nil || n != 6 {
		t.Fatalf("OutSize = %d, %v", n, err)
	}
	if _, err := d.OutSize(5); err == nil {
		t.Fatal("OutSize should reject wrong width")
	}
}

func TestDenseBias(t *testing.T) {
	r := rng.New(1)
	d := NewDense("d", 2, 2, r)
	d.W.Value.Zero()
	d.B.Value.Data[0], d.B.Value.Data[1] = 3, -4
	y := d.Forward(randInput(r, 1, 2))
	if y.Data[0] != 3 || y.Data[1] != -4 {
		t.Fatalf("bias not applied: %v", y.Data)
	}
}

// convBatches are the batch sizes the conv gradient checks run at: one
// sample, a few, and a training minibatch.
var convBatches = []int{1, 3, 32}

// forConvBatches runs check as one subtest per batch size of convBatches.
func forConvBatches(t *testing.T, check func(t *testing.T, n int)) {
	for _, n := range convBatches {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) { check(t, n) })
	}
}

func TestConvGradients(t *testing.T) {
	forConvBatches(t, func(t *testing.T, n int) {
		r := rng.New(2)
		c := MustConv2D("c", 2, 6, 6, 3, 3, 3, 1, 1, r)
		checkGradients(t, c, randInput(r, n, 2*6*6), 2e-2)
	})
}

func TestConvStrideGradients(t *testing.T) {
	forConvBatches(t, func(t *testing.T, n int) {
		r := rng.New(3)
		c := MustConv2D("c", 1, 8, 8, 2, 3, 3, 2, 0, r)
		checkGradients(t, c, randInput(r, n, 64), 2e-2)
	})
}

func TestConvOutSize(t *testing.T) {
	r := rng.New(2)
	c := MustConv2D("c", 1, 28, 28, 5, 5, 5, 1, 0, r)
	n, err := c.OutSize(784)
	if err != nil || n != 5*24*24 {
		t.Fatalf("OutSize = %d, %v; want %d", n, err, 5*24*24)
	}
}

func TestConvRejectsBadGeometry(t *testing.T) {
	r := rng.New(2)
	if _, err := NewConv2D("c", 1, 4, 4, 2, 7, 7, 1, 0, r); err == nil {
		t.Fatal("expected geometry error")
	}
	if _, err := NewConv2D("c", 1, 8, 8, 0, 3, 3, 1, 0, r); err == nil {
		t.Fatal("expected outC error")
	}
}

func TestMaxPoolForward(t *testing.T) {
	p := MustMaxPool2D("p", 1, 4, 4, 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 16)
	y := p.Forward(x)
	want := []float32{6, 8, 14, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], want[i])
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	p := MustMaxPool2D("p", 1, 2, 2, 2, 2)
	x := tensor.FromSlice([]float32{1, 9, 3, 4}, 1, 4)
	_ = p.Forward(x)
	g := tensor.FromSlice([]float32{5}, 1, 1)
	dx := p.Backward(g)
	want := []float32{0, 5, 0, 0}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], want[i])
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	r := rng.New(4)
	p := MustMaxPool2D("p", 2, 6, 6, 2, 2)
	// Use distinct values so the argmax is stable under ±eps perturbation.
	x := tensor.New(2, 72)
	perm := r.Perm(144)
	for i, v := range perm {
		x.Data[i] = float32(v) * 0.1
	}
	checkGradients(t, p, x, 2e-2)
}

func TestReLUGradients(t *testing.T) {
	r := rng.New(5)
	// Shift inputs away from 0 where relu is non-differentiable.
	x := randInput(r, 3, 10)
	for i := range x.Data {
		if x.Data[i] > -0.01 && x.Data[i] < 0.01 {
			x.Data[i] = 0.5
		}
	}
	checkGradients(t, NewReLU("r"), x, 2e-2)
}

// TestReLUForward also pins the plan's rule (zero where v < 0): −0 and NaN
// pass through Forward as they pass through EpActReLU, while Backward masks
// their gradient.
func TestReLUForward(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	x := tensor.FromSlice([]float32{-1, 0, 2, negZero, nan}, 1, 5)
	r := NewReLU("r")
	y := r.Forward(x)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu = %v", y.Data)
	}
	if math.Float32bits(y.Data[3]) != math.Float32bits(negZero) || !math.IsNaN(float64(y.Data[4])) {
		t.Fatalf("relu(−0, NaN) = %v, %v; want −0, NaN as the plan gives", y.Data[3], y.Data[4])
	}
	g := r.Backward(tensor.FromSlice([]float32{1, 1, 1, 1, 1}, 1, 5))
	for i, want := range []float32{0, 0, 1, 0, 0} {
		if g.Data[i] != want {
			t.Fatalf("relu grad = %v", g.Data)
		}
	}
}

func TestSigmoidGradients(t *testing.T) {
	r := rng.New(6)
	checkGradients(t, NewSigmoid("s"), randInput(r, 3, 8), 2e-2)
}

func TestSigmoidRange(t *testing.T) {
	r := rng.New(6)
	y := NewSigmoid("s").Forward(randInput(r, 4, 16))
	for _, v := range y.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid out of (0,1): %v", v)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(7)
	x := randInput(r, 5, 11)
	for i := 0; i < 5; i++ {
		row := x.Data[i*11 : (i+1)*11]
		SoftmaxRow(row)
		var s float64
		for _, v := range row {
			s += float64(v)
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	row := []float32{1000, 1001, 999}
	SoftmaxRow(row)
	var s float64
	for _, v := range row {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", row)
		}
		s += float64(v)
	}
	if math.Abs(s-1) > 1e-5 {
		t.Fatalf("sum %v", s)
	}
}

func TestActivityRegularizerIdentityForward(t *testing.T) {
	r := rng.New(8)
	x := randInput(r, 2, 5)
	a := NewActivityRegularizer("ar", 0.1)
	y := a.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("activity regularizer altered forward values")
		}
	}
}

func TestActivityRegularizerGradient(t *testing.T) {
	a := NewActivityRegularizer("ar", 0.5)
	x := tensor.FromSlice([]float32{2, -3, 0}, 1, 3)
	_ = a.Forward(x)
	g := tensor.FromSlice([]float32{1, 1, 1}, 1, 3)
	dx := a.Backward(g)
	want := []float32{1.5, 0.5, 1}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], want[i])
		}
	}
	if p := a.Penalty(); math.Abs(p-0.5*5) > 1e-6 {
		t.Fatalf("penalty %v, want 2.5", p)
	}
}

func TestSequentialStacksAndValidates(t *testing.T) {
	r := rng.New(11)
	net := NewSequential("net",
		NewDense("d1", 10, 8, r),
		NewReLU("r1"),
		NewDense("d2", 8, 3, r),
	)
	if n, err := net.OutSize(10); err != nil || n != 3 {
		t.Fatalf("OutSize = %d, %v", n, err)
	}
	if _, err := net.OutSize(11); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if got := len(net.Params()); got != 4 {
		t.Fatalf("param tensors = %d, want 4", got)
	}
	n := 0
	for _, p := range net.Params() {
		n += p.Value.Len()
	}
	if n != 10*8+8+8*3+3 {
		t.Fatalf("parameter count = %d", n)
	}
}

func TestSequentialGradients(t *testing.T) {
	r := rng.New(12)
	net := NewSequential("net",
		NewDense("d1", 6, 5, r),
		NewReLU("r1"),
		NewDense("d2", 5, 4, r),
		NewSigmoid("s"),
	)
	checkGradients(t, net, randInput(r, 2, 6), 3e-2)
}

func TestConvPoolStackGradients(t *testing.T) {
	forConvBatches(t, func(t *testing.T, n int) {
		r := rng.New(13)
		net := NewSequential("cnn",
			MustConv2D("c1", 1, 8, 8, 2, 3, 3, 1, 0, r),
			NewReLU("r1"),
			MustMaxPool2D("p1", 2, 6, 6, 2, 2),
			NewDense("d1", 2*3*3, 4, r),
		)
		checkGradients(t, net, randInput(r, n, 64), 3e-2)
	})
}

// TestBackwardParamsMatchesBackward: BackwardParams, which builds no input
// gradient for the first layer, accumulates the same parameter gradient bits
// as Backward, with a conv or a dense layer first.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, first := range []string{"conv", "dense"} {
		build := func() *Sequential {
			r := rng.New(17)
			if first == "conv" {
				return NewSequential("cnn",
					MustConv2D("c1", 1, 8, 8, 2, 3, 3, 1, 1, r),
					NewReLU("r1"),
					MustConv2D("c2", 2, 8, 8, 3, 3, 3, 2, 0, r),
					NewDense("d1", 3*3*3, 4, r),
				)
			}
			return NewSequential("mlp", NewDense("d1", 64, 16, r), NewReLU("r1"), NewDense("d2", 16, 4, r))
		}
		x := randInput(rng.New(18), 5, 64)
		full, params := build(), build()
		y := full.Forward(x)
		g := randInput(rng.New(19), y.Shape[0], y.Shape[1])
		full.Backward(g)
		params.Forward(x)
		params.BackwardParams(g)
		for i, p := range params.Params() {
			want := full.Params()[i].Grad().Data
			for j, v := range p.Grad().Data {
				if math.Float32bits(v) != math.Float32bits(want[j]) {
					t.Errorf("%s first: %s grad[%d] = %v, Backward's %v", first, p.Name, j, v, want[j])
					break
				}
			}
		}
	}
}

// TestServingHoldsNoGradients: a network that is built, compiled and run but
// never trained holds no gradient buffers and no conv training scratch,
// ZeroGrad leaves them unallocated, and the first Backward allocates the
// gradients shaped like their parameters.
func TestServingHoldsNoGradients(t *testing.T) {
	r := rng.New(15)
	net := NewSequential("cnn",
		MustConv2D("c1", 1, 8, 8, 2, 3, 3, 1, 0, r),
		NewReLU("r1"),
		NewDense("d1", 2*6*6, 4, r),
	)
	x := randInput(r, 3, 64)
	Run(net, x)
	for _, p := range net.Params() {
		p.ZeroGrad()
		if p.grad != nil {
			t.Fatalf("%s holds a gradient buffer without ever training", p.Name)
		}
	}
	if c := net.Layers[0].(*Conv2D); c.cols != nil || c.g != nil || c.pack.PanelBytes() != 0 {
		t.Fatal("c1 holds training scratch without ever training")
	}
	y := net.Forward(x)
	net.Backward(tensor.New(y.Shape...))
	for _, p := range net.Params() {
		if p.grad == nil || !slices.Equal(p.grad.Shape, p.Value.Shape) {
			t.Fatalf("%s after Backward: gradient %v, want one shaped %v", p.Name, p.grad, p.Value.Shape)
		}
	}
}

func TestZeroGradClears(t *testing.T) {
	r := rng.New(14)
	net := NewSequential("n", NewDense("d", 3, 2, r))
	x := randInput(r, 2, 3)
	y := net.Forward(x)
	g := tensor.New(y.Shape...)
	for i := range g.Data {
		g.Data[i] = 1
	}
	net.Backward(g)
	if net.Params()[0].Grad().AbsSum() == 0 {
		t.Fatal("expected nonzero grads after backward")
	}
	for _, p := range net.Params() {
		p.ZeroGrad()
		if p.Grad().AbsSum() != 0 {
			t.Fatalf("grad %s not cleared", p.Name)
		}
	}
}

// Property: softmax output is invariant to a constant shift of the logits.
func TestQuickSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		w := r.Intn(10) + 2
		x := tensor.New(1, w)
		x.RandNormal(r, 0, 3)
		shift := x.Clone()
		c := r.NormFloat32()
		for i := range shift.Data {
			shift.Data[i] += c
		}
		SoftmaxRow(x.Data)
		SoftmaxRow(shift.Data)
		for i := range x.Data {
			if math.Abs(float64(x.Data[i]-shift.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: relu is idempotent — relu(relu(x)) == relu(x).
func TestQuickReLUIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := tensor.New(1, 20)
		x.RandNormal(r, 0, 2)
		once := NewReLU("a").Forward(x)
		twice := NewReLU("b").Forward(once)
		for i := range once.Data {
			if once.Data[i] != twice.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
