package nn

import (
	"math"
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
	y := net.Forward(x, false)
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
	y := net.Forward(x, true)
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
			ana := float64(p.Grad.Data[i])
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
	y := d.Forward(randInput(r, 2, 4), false)
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
	y := d.Forward(randInput(r, 1, 2), false)
	if y.Data[0] != 3 || y.Data[1] != -4 {
		t.Fatalf("bias not applied: %v", y.Data)
	}
}

func TestConvGradients(t *testing.T) {
	r := rng.New(2)
	c := MustConv2D("c", 2, 6, 6, 3, 3, 3, 1, 1, r)
	checkGradients(t, c, randInput(r, 2, 2*6*6), 2e-2)
}

func TestConvStrideGradients(t *testing.T) {
	r := rng.New(3)
	c := MustConv2D("c", 1, 8, 8, 2, 3, 3, 2, 0, r)
	checkGradients(t, c, randInput(r, 2, 64), 2e-2)
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
	y := p.Forward(x, false)
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
	_ = p.Forward(x, true)
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

func TestReLUForward(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	y := NewReLU("r").Forward(x, false)
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 {
		t.Fatalf("relu = %v", y.Data)
	}
}

func TestSigmoidGradients(t *testing.T) {
	r := rng.New(6)
	checkGradients(t, NewSigmoid("s"), randInput(r, 3, 8), 2e-2)
}

func TestSigmoidRange(t *testing.T) {
	r := rng.New(6)
	y := NewSigmoid("s").Forward(randInput(r, 4, 16), false)
	for _, v := range y.Data {
		if v <= 0 || v >= 1 {
			t.Fatalf("sigmoid out of (0,1): %v", v)
		}
	}
}

func TestSoftmaxGradients(t *testing.T) {
	r := rng.New(7)
	checkGradients(t, NewSoftmax("sm"), randInput(r, 3, 6), 2e-2)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(7)
	y := NewSoftmax("sm").Forward(randInput(r, 5, 11), false)
	for i := 0; i < 5; i++ {
		var s float64
		for j := 0; j < 11; j++ {
			s += float64(y.At(i, j))
		}
		if math.Abs(s-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableWithLargeLogits(t *testing.T) {
	x := tensor.FromSlice([]float32{1000, 1001, 999}, 1, 3)
	y := NewSoftmax("sm").Forward(x, false)
	var s float64
	for _, v := range y.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", y.Data)
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
	y := a.Forward(x, false)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("activity regularizer altered forward values")
		}
	}
}

func TestActivityRegularizerGradient(t *testing.T) {
	a := NewActivityRegularizer("ar", 0.5)
	x := tensor.FromSlice([]float32{2, -3, 0}, 1, 3)
	_ = a.Forward(x, true)
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
	if net.ParamCount() != 10*8+8+8*3+3 {
		t.Fatalf("ParamCount = %d", net.ParamCount())
	}
}

func TestSequentialGradients(t *testing.T) {
	r := rng.New(12)
	net := NewSequential("net",
		NewDense("d1", 6, 5, r),
		NewReLU("r1"),
		NewDense("d2", 5, 4, r),
		NewSoftmax("sm"),
	)
	checkGradients(t, net, randInput(r, 2, 6), 3e-2)
}

func TestConvPoolStackGradients(t *testing.T) {
	r := rng.New(13)
	net := NewSequential("cnn",
		MustConv2D("c1", 1, 8, 8, 2, 3, 3, 1, 0, r),
		NewReLU("r1"),
		MustMaxPool2D("p1", 2, 6, 6, 2, 2),
		NewDense("d1", 2*3*3, 4, r),
	)
	checkGradients(t, net, randInput(r, 2, 64), 3e-2)
}

func TestZeroGradClears(t *testing.T) {
	r := rng.New(14)
	net := NewSequential("n", NewDense("d", 3, 2, r))
	x := randInput(r, 2, 3)
	y := net.Forward(x, true)
	g := tensor.New(y.Shape...)
	g.Fill(1)
	net.Backward(g)
	if net.Params()[0].Grad.AbsSum() == 0 {
		t.Fatal("expected nonzero grads after backward")
	}
	net.ZeroGrad()
	for _, p := range net.Params() {
		if p.Grad.AbsSum() != 0 {
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
		a := NewSoftmax("a").Forward(x, false)
		b := NewSoftmax("b").Forward(shift, false)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-4 {
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
		once := NewReLU("a").Forward(x, false)
		twice := NewReLU("b").Forward(once, false)
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
