package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"cbnet/internal/rng"
)

func TestEntropyUniform(t *testing.T) {
	probs := []float32{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(probs); math.Abs(h-math.Log(4)) > 1e-6 {
		t.Fatalf("entropy %v, want ln4", h)
	}
}

func TestEntropyDelta(t *testing.T) {
	probs := []float32{1, 0, 0, 0}
	if h := Entropy(probs); h != 0 {
		t.Fatalf("entropy of delta = %v, want 0", h)
	}
}

// Property: the entropy of any distribution over k classes lies in
// [0, ln k].
func TestQuickEntropyRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		k := r.Intn(10) + 2
		probs := make([]float32, k)
		var sum float32
		for i := range probs {
			probs[i] = r.Float32()
			sum += probs[i]
		}
		if sum == 0 {
			return true
		}
		for i := range probs {
			probs[i] /= sum
		}
		h := Entropy(probs)
		return h >= 0 && h <= math.Log(float64(k))+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
