package opt

import (
	"math"
	"testing"

	"cbnet/internal/loss"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

func paramWithGrad(vals, grads []float32) *nn.Param {
	return &nn.Param{
		Name:  "p",
		Value: tensor.FromSlice(append([]float32(nil), vals...), len(vals)),
		Grad:  tensor.FromSlice(append([]float32(nil), grads...), len(grads)),
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the very first Adam step moves each weight by
	// almost exactly lr in the negative gradient direction.
	p := paramWithGrad([]float32{1}, []float32{3})
	NewAdam(0.01).Step([]*nn.Param{p})
	if math.Abs(float64(p.Value.Data[0])-(1-0.01)) > 1e-4 {
		t.Fatalf("w = %v, want ≈0.99", p.Value.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)², starting at 0.
	p := paramWithGrad([]float32{0}, []float32{0})
	a := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		a.Step([]*nn.Param{p})
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 0.01 {
		t.Fatalf("Adam failed to converge: w = %v", p.Value.Data[0])
	}
}

func TestNonPositiveLRPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdam(0)
}

// Integration: a dense+relu network trained with Adam fits a linearly
// separable toy problem to high accuracy.
func TestOptimizerTrainsNetwork(t *testing.T) {
	r := rng.New(42)
	net := nn.NewSequential("toy",
		nn.NewDense("d1", 2, 16, r),
		nn.NewReLU("r1"),
		nn.NewDense("d2", 16, 2, r),
	)
	adam := NewAdam(0.01)
	// Class = whether x+y > 0.
	const n = 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.NormFloat32(), r.NormFloat32()
		x.Set(a, i, 0)
		x.Set(b, i, 1)
		if a+b > 0 {
			labels[i] = 1
		}
	}
	for epoch := 0; epoch < 200; epoch++ {
		logits := net.Forward(x)
		_, grad := loss.CrossEntropy(logits, labels)
		net.Backward(grad)
		adam.Step(net.Params())
	}
	logits := net.Forward(x)
	correct := 0
	for i := 0; i < n; i++ {
		if logits.Row(i).ArgMax() == labels[i] {
			correct++
		}
	}
	if correct < n*9/10 {
		t.Fatalf("trained accuracy %d/%d, want ≥90%%", correct, n)
	}
}
