package loss

import (
	"math"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// mse and crossEntropy call the losses with a fresh gradient of the
// output's shape and return it.
func mse(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	g := tensor.New(pred.Shape...)
	return MSE(g, pred, target), g
}

func crossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	g := tensor.New(logits.Shape...)
	return CrossEntropy(g, logits, labels), g
}

func TestMSEZeroWhenEqual(t *testing.T) {
	x := tensor.FromSlice([]float32{1, 2, 3}, 1, 3)
	l, g := mse(x, x.Clone())
	if l != 0 {
		t.Fatalf("MSE = %v, want 0", l)
	}
	for _, v := range g.Data {
		if v != 0 {
			t.Fatalf("grad = %v, want zeros", g.Data)
		}
	}
}

func TestMSEValueAndGrad(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 3}, 1, 2)
	tgt := tensor.FromSlice([]float32{0, 0}, 1, 2)
	l, g := mse(pred, tgt)
	if math.Abs(l-5) > 1e-6 { // (1+9)/2
		t.Fatalf("MSE = %v, want 5", l)
	}
	// grad = 2*(pred-tgt)/n = [1, 3]
	if math.Abs(float64(g.Data[0])-1) > 1e-6 || math.Abs(float64(g.Data[1])-3) > 1e-6 {
		t.Fatalf("grad = %v, want [1 3]", g.Data)
	}
}

func TestMSEGradMatchesNumeric(t *testing.T) {
	r := rng.New(1)
	pred := tensor.New(3, 7)
	tgt := tensor.New(3, 7)
	pred.RandNormal(r, 0, 1)
	tgt.RandNormal(r, 0, 1)
	_, g := mse(pred, tgt)
	const eps = 1e-3
	for s := 0; s < 10; s++ {
		i := r.Intn(pred.Len())
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		up, _ := mse(pred, tgt)
		pred.Data[i] = orig - eps
		down, _ := mse(pred, tgt)
		pred.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(g.Data[i])) > 1e-3 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestCrossEntropyPerfectPrediction(t *testing.T) {
	// Very confident, correct logits → loss near zero.
	logits := tensor.FromSlice([]float32{20, 0, 0}, 1, 3)
	l, _ := crossEntropy(logits, []int{0})
	if l > 1e-6 {
		t.Fatalf("CE = %v, want ≈0", l)
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(1, 10)
	l, _ := crossEntropy(logits, []int{4})
	if math.Abs(l-math.Log(10)) > 1e-5 {
		t.Fatalf("CE = %v, want ln10 = %v", l, math.Log(10))
	}
}

func TestCrossEntropyGradMatchesNumeric(t *testing.T) {
	r := rng.New(2)
	logits := tensor.New(4, 5)
	logits.RandNormal(r, 0, 1)
	labels := []int{0, 3, 2, 4}
	_, g := crossEntropy(logits, labels)
	const eps = 1e-3
	for s := 0; s < 12; s++ {
		i := r.Intn(logits.Len())
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up, _ := crossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		down, _ := crossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(g.Data[i])) > 1e-3 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, g.Data[i], num)
		}
	}
}

func TestCrossEntropyRejectsBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	crossEntropy(tensor.New(1, 3), []int{3})
}

// Property: cross-entropy loss is non-negative and grad rows sum to ≈0
// (softmax minus one-hot sums to zero).
func TestQuickCrossEntropyInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n, k := r.Intn(5)+1, r.Intn(8)+2
		logits := tensor.New(n, k)
		logits.RandNormal(r, 0, 2)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = r.Intn(k)
		}
		l, g := crossEntropy(logits, labels)
		if l < 0 {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < k; j++ {
				s += float64(g.At(i, j))
			}
			if math.Abs(s) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: mse(a,b) == mse(b,a) and is non-negative.
func TestQuickMSESymmetric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(30) + 1
		a, b := tensor.New(1, n), tensor.New(1, n)
		a.RandNormal(r, 0, 1)
		b.RandNormal(r, 0, 1)
		l1, _ := mse(a, b)
		l2, _ := mse(b, a)
		return l1 >= 0 && math.Abs(l1-l2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLossesReuseOneGradient: a gradient held at a full batch serves a
// short one — re-viewed at the short batch's shape, with the bits of a fresh
// gradient — and then the full batch again.
func TestLossesReuseOneGradient(t *testing.T) {
	r := rng.New(3)
	full, short, target := tensor.New(4, 5), tensor.New(2, 5), tensor.New(4, 5)
	full.RandNormal(r, 0, 1)
	short.RandNormal(r, 0, 1)
	target.RandNormal(r, 0, 1)
	labels := []int{1, 4, 0, 2}
	g := tensor.New(4, 5)
	same := func(what string, l, wl float64, want *tensor.Tensor) {
		t.Helper()
		if l != wl || !g.SameShape(want) {
			t.Fatalf("%s: loss %v shape %v, fresh %v %v", what, l, g.Shape, wl, want.Shape)
		}
		for i := range want.Data {
			if math.Float32bits(g.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: grad[%d] %v, fresh %v", what, i, g.Data[i], want.Data[i])
			}
		}
	}
	for _, x := range []*tensor.Tensor{full, short, full} {
		n := x.Shape[0]
		l := CrossEntropy(g, x, labels[:n])
		wl, want := crossEntropy(x, labels[:n])
		same("CrossEntropy", l, wl, want)
		tgt := tensor.FromSlice(target.Data[:len(x.Data)], x.Shape...)
		l = MSE(g, x, tgt)
		wl, want = mse(x, tgt)
		same("MSE", l, wl, want)
	}
}
