package nn

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// lossOf computes a deterministic scalar pseudo-loss Σ cᵢ·yᵢ over the
// training plan's output, whose gradient with respect to y is simply c.
// Running the plan forward under small parameter perturbations then gives
// numerical derivatives to compare against Backward.
func lossOf(plan *TrainPlan, x *tensor.Tensor, c []float32) float64 {
	y := plan.Forward(x)
	var s float64
	for i, v := range y.Data {
		s += float64(c[i]) * float64(v)
	}
	return s
}

// checkGradients validates every parameter gradient and the input gradient
// of net's training plan at x by central finite differences.
func checkGradients(t *testing.T, net *Sequential, x *tensor.Tensor, tol float64) {
	t.Helper()
	plan, err := CompileTraining(net, x.Shape[0])
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(99)
	y := plan.Forward(x)
	c := make([]float32, len(y.Data))
	for i := range c {
		c[i] = r.NormFloat32()
	}
	for _, p := range net.Params() {
		clear(p.Grad().Data)
	}
	grad := tensor.FromSlice(append([]float32(nil), c...), y.Shape...)
	dx := plan.Backward(grad).Clone()

	const eps = 1e-3
	for _, p := range net.Params() {
		n := p.Value.Len()
		// Sample a handful of coordinates to keep the test fast.
		for s := 0; s < 12; s++ {
			i := r.Intn(n)
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			up := lossOf(plan, x, c)
			p.Value.Data[i] = orig - eps
			down := lossOf(plan, x, c)
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
		up := lossOf(plan, x, c)
		x.Data[i] = orig - eps
		down := lossOf(plan, x, c)
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		ana := float64(dx.Data[i])
		if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
			t.Errorf("input[%d]: analytic %.6f numeric %.6f", i, ana, num)
		}
	}
}

// identityDense is an n→n dense layer with W = I and a zero bias: its step
// passes each input through exactly, so the activation fused after it sees
// the test's own values.
func identityDense(name string, n int) *Dense {
	d := NewDense(name, n, n, rng.New(1))
	clear(d.W.Value.Data)
	for i := 0; i < n; i++ {
		d.W.Value.Data[i*n+i] = 1
	}
	return d
}

// trainStep runs one Forward and Backward of net's training plan on x with
// output gradient g, and returns the output and the input gradient.
func trainStep(t *testing.T, net *Sequential, x, g *tensor.Tensor) (y, dx *tensor.Tensor) {
	t.Helper()
	plan, err := CompileTraining(net, x.Shape[0])
	if err != nil {
		t.Fatal(err)
	}
	y = plan.Forward(x).Clone()
	return y, plan.Backward(g)
}

func randInput(r *rng.RNG, n, w int) *tensor.Tensor {
	x := tensor.New(n, w)
	x.RandNormal(r, 0, 1)
	return x
}

// runNet compiles net at x's batch and executes it into a fresh tensor.
func runNet(net *Sequential, x *tensor.Tensor) *tensor.Tensor {
	p := MustCompile(net, x.Shape[0])
	return p.Execute(tensor.New(x.Shape[0], p.outW), x)
}

func TestDenseGradients(t *testing.T) {
	r := rng.New(1)
	checkGradients(t, NewSequential("d", NewDense("d", 7, 5, r)), randInput(r, 3, 7), 2e-2)
}

func TestDenseForwardShape(t *testing.T) {
	r := rng.New(1)
	d := NewDense("d", 4, 6, r)
	y := runNet(NewSequential("d", d), randInput(r, 2, 4))
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
	clear(d.W.Value.Data)
	d.B.Value.Data[0], d.B.Value.Data[1] = 3, -4
	y := runNet(NewSequential("d", d), randInput(r, 1, 2))
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
		checkGradients(t, NewSequential("c", c), randInput(r, n, 2*6*6), 2e-2)
	})
}

func TestConvStrideGradients(t *testing.T) {
	forConvBatches(t, func(t *testing.T, n int) {
		r := rng.New(3)
		c := MustConv2D("c", 1, 8, 8, 2, 3, 3, 2, 0, r)
		checkGradients(t, NewSequential("c", c), randInput(r, n, 64), 2e-2)
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
	y := runNet(NewSequential("p", p), x)
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
	_, dx := trainStep(t, NewSequential("p", p), x, tensor.FromSlice([]float32{5}, 1, 1))
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
	checkGradients(t, NewSequential("p", p), x, 2e-2)
}

func TestReLUGradients(t *testing.T) {
	r := rng.New(5)
	// Shift inputs away from 0 where relu is non-differentiable; the identity
	// dense step hands them to the relu unchanged.
	x := randInput(r, 3, 10)
	for i := range x.Data {
		if x.Data[i] > -0.01 && x.Data[i] < 0.01 {
			x.Data[i] = 0.5
		}
	}
	checkGradients(t, NewSequential("r", identityDense("d", 10), NewReLU("r")), x, 2e-2)
}

// TestReLUForward pins a fused relu in a training plan: its forward pass
// zeroes where v < 0 and lets NaN through, as EpActReLU does in serving, and
// its backward masks the gradient to y > 0 — the set x > 0 — so a negative
// input, a zero and a NaN pass no gradient back.
func TestReLUForward(t *testing.T) {
	nan := float32(math.NaN())
	x := tensor.FromSlice([]float32{-1, 0, 2, nan}, 4, 1)
	net := NewSequential("r", identityDense("d", 1), NewReLU("r"))
	y, dx := trainStep(t, net, x, tensor.FromSlice([]float32{1, 1, 1, 1}, 4, 1))
	if y.Data[0] != 0 || y.Data[1] != 0 || y.Data[2] != 2 || !math.IsNaN(float64(y.Data[3])) {
		t.Fatalf("relu = %v", y.Data)
	}
	for i, want := range []float32{0, 0, 1, 0} {
		if dx.Data[i] != want {
			t.Fatalf("relu input grad = %v", dx.Data)
		}
	}
}

func TestSigmoidGradients(t *testing.T) {
	r := rng.New(6)
	checkGradients(t, NewSequential("s", NewDense("d", 8, 8, r), NewSigmoid("s")), randInput(r, 3, 8), 2e-2)
}

func TestSigmoidRange(t *testing.T) {
	r := rng.New(6)
	y := runNet(NewSequential("s", identityDense("d", 16), NewSigmoid("s")), randInput(r, 4, 16))
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

// TestActivityRegularizerIdentityForward: a regularizer changes no output,
// in a training plan (which hangs it on the step before it) or an inference
// plan (which elides it).
func TestActivityRegularizerIdentityForward(t *testing.T) {
	r := rng.New(8)
	x := randInput(r, 2, 5)
	d := NewDense("d", 5, 4, r)
	want := runNet(NewSequential("plain", d), x)
	plan, err := CompileTraining(NewSequential("reg", d, NewActivityRegularizer("ar", 0.1)), 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, y := range map[string]*tensor.Tensor{
		"training":  plan.Forward(x),
		"inference": runNet(NewSequential("reg", d, NewActivityRegularizer("ar", 0.1)), x),
	} {
		for i := range want.Data {
			if math.Float32bits(y.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: activity regularizer altered forward values", name)
			}
		}
	}
}

// TestActivityRegularizerGradient: the training plan adds λ·sign(y) to the
// gradient of the step the regularizer follows, and reports λ·Σ|y|.
func TestActivityRegularizerGradient(t *testing.T) {
	plan, err := CompileTraining(NewSequential("reg", identityDense("d", 3), NewActivityRegularizer("ar", 0.5)), 1)
	if err != nil {
		t.Fatal(err)
	}
	plan.Forward(tensor.FromSlice([]float32{2, -3, 0}, 1, 3))
	if p := plan.Penalty(); math.Abs(p-0.5*5) > 1e-6 {
		t.Fatalf("penalty %v, want 2.5", p)
	}
	dx := plan.Backward(tensor.FromSlice([]float32{1, 1, 1}, 1, 3))
	want := []float32{1.5, 0.5, 1}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx[%d] = %v, want %v", i, dx.Data[i], want[i])
		}
	}
}

// TestCompileTrainingRejectsRegularizerItCannotCarry: a training plan hangs
// each activity regularizer on the step before it and reads that step's
// output, so one ahead of every layer, a second on one step, or one between
// a step and its activation is a CompileTraining error naming it. Compile
// still elides all three.
func TestCompileTrainingRejectsRegularizerItCannotCarry(t *testing.T) {
	r := rng.New(9)
	for _, c := range []struct {
		net  *Sequential
		name string
	}{
		{NewSequential("leading", NewActivityRegularizer("first-reg", 1e-6), NewDense("fc", 4, 2, r)), "first-reg"},
		{NewSequential("doubled", NewDense("fc", 4, 2, r), NewActivityRegularizer("a", 1e-6), NewActivityRegularizer("second-reg", 1e-6)), "second-reg"},
		{NewSequential("before-act", NewDense("fc", 4, 2, r), NewActivityRegularizer("pre-act-reg", 1e-6), NewReLU("relu")), "pre-act-reg"},
	} {
		if _, err := CompileTraining(c.net, 4); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("%s: CompileTraining error %v, want one naming %s", c.net.Name(), err, c.name)
		}
		if _, err := Compile(c.net, 4); err != nil {
			t.Errorf("%s: Compile: %v", c.net.Name(), err)
		}
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

// TestBackwardParamsMatchesBackward: a training plan's BackwardParams,
// which builds no input gradient for the first step, accumulates the same
// parameter gradient bits as its Backward, with a conv or a dense layer
// first.
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
		fullPlan, err := CompileTraining(full, 5)
		if err != nil {
			t.Fatal(err)
		}
		paramsPlan, err := CompileTraining(params, 5)
		if err != nil {
			t.Fatal(err)
		}
		y := fullPlan.Forward(x)
		g := randInput(rng.New(19), y.Shape[0], y.Shape[1])
		paramsPlan.Forward(x)
		paramsPlan.BackwardParams(g.Clone())
		fullPlan.Backward(g)
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
// never trained holds no gradient buffers, and a training plan's first
// Backward allocates the gradients shaped like their parameters.
func TestServingHoldsNoGradients(t *testing.T) {
	r := rng.New(15)
	net := NewSequential("cnn",
		MustConv2D("c1", 1, 8, 8, 2, 3, 3, 1, 0, r),
		NewReLU("r1"),
		NewDense("d1", 2*6*6, 4, r),
	)
	x := randInput(r, 3, 64)
	runNet(net, x)
	for _, p := range net.Params() {
		if p.grad != nil {
			t.Fatalf("%s holds a gradient buffer without ever training", p.Name)
		}
	}
	trainStep(t, net, x, tensor.New(3, 4))
	for _, p := range net.Params() {
		if p.grad == nil || !slices.Equal(p.grad.Shape, p.Value.Shape) {
			t.Fatalf("%s after Backward: gradient %v, want one shaped %v", p.Name, p.grad, p.Value.Shape)
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

// Property: relu is idempotent — relu(relu(x)) == relu(x), through a plan
// whose identity dense step hands x to the fused relu unchanged.
func TestQuickReLUIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x := tensor.New(1, 20)
		x.RandNormal(r, 0, 2)
		relu := NewSequential("relu", identityDense("d", 20), NewReLU("r"))
		once := runNet(relu, x)
		twice := runNet(relu, once)
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

// TestTrainPlanGradSlots: a training plan sizes its input-gradient slots
// for the steps after the first, whose input gradients BackwardParams
// writes; step 0's is Backward's alone, and slot 0 grows for it on
// Backward's first call. BranchyNet's stem (conv, pool) then holds no slot
// 0 at all, and a dense stack's slot 0 is sized by step 2's input.
func TestTrainPlanGradSlots(t *testing.T) {
	const n = 32
	r := rng.New(5)
	for _, c := range []struct {
		net          *Sequential
		in           int
		slot0, slot1 int
	}{
		{NewSequential("stem", MustConv2D("conv1", 1, 28, 28, 3, 5, 5, 1, 2, r), NewReLU("relu1"),
			MustMaxPool2D("pool1", 3, 28, 28, 2, 2)), 784, 0, 3 * 28 * 28},
		{NewSequential("dense", NewDense("d1", 784, 256, r), NewDense("d2", 256, 128, r),
			NewDense("d3", 128, 256, r), NewDense("d4", 256, 784, r)), 784, 128, 256},
	} {
		plan, err := CompileTraining(c.net, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan.grad[0]) != n*c.slot0 || len(plan.grad[1]) != n*c.slot1 {
			t.Fatalf("%s: slots of %d and %d floats, want %d and %d",
				c.net.Name(), len(plan.grad[0]), len(plan.grad[1]), n*c.slot0, n*c.slot1)
		}
		x := tensor.New(n, c.in)
		x.RandUniform(r, 0, 1)
		g := tensor.New(plan.Forward(x).Shape...)
		g.RandUniform(r, -1, 1)
		plan.BackwardParams(g.Clone())
		if len(plan.grad[0]) != n*c.slot0 {
			t.Fatalf("%s: BackwardParams grew slot 0 to %d floats", c.net.Name(), len(plan.grad[0]))
		}
		if dx := plan.Backward(g); !dx.SameShape(x) || len(plan.grad[0]) != n*c.in {
			t.Fatalf("%s: Backward gave %v with a slot 0 of %d floats, want %v and %d",
				c.net.Name(), dx.Shape, len(plan.grad[0]), x.Shape, n*c.in)
		}
	}
}
