// Package loss implements the training objectives used in the paper:
// softmax cross-entropy for the classifiers (LeNet, BranchyNet branches) and
// mean squared error for the converting autoencoder's reconstruction loss.
//
// Every loss returns the scalar value and writes the gradient with respect
// to the network output, averaged over the batch, into a caller-owned
// tensor, ready to feed into a training plan's Backward (nn.TrainPlan). Each
// call re-views that tensor at the batch's shape and replaces its storage
// only when it is too short, so a trainer holds one gradient for the whole
// run: sized by the first, full minibatch, reused by every later one.
package loss

import (
	"fmt"
	"math"

	"cbnet/internal/nn"
	"cbnet/internal/tensor"
)

// MSE computes the mean squared error between pred and target (identical
// shapes): L = (1/(N·D)) Σ (pred−target)², matching the paper's
// "reconstruction loss ... mean squared error between the model output and
// the target output". It writes dL/dpred into grad.
func MSE(grad, pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("loss: MSE shape mismatch %v vs %v", pred.Shape, target.Shape))
	}
	g := viewLike(grad, pred)
	n := len(g)
	if n == 0 {
		return 0
	}
	var sum float64
	scale := 2 / float64(n)
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		sum += d * d
		g[i] = float32(scale * d)
	}
	return sum / float64(n)
}

// CrossEntropy computes the fused softmax + cross-entropy loss for logits of
// shape (batch, classes) against integer labels. It returns the mean
// negative log-likelihood and writes dL/dlogits = (softmax(logits) −
// onehot)/batch into grad.
//
// Fusing the softmax keeps the gradient numerically exact; the classifier
// networks therefore end in a raw Dense layer and apply softmax only for
// confidence estimation at inference time.
func CrossEntropy(grad, logits *tensor.Tensor, labels []int) float64 {
	if len(logits.Shape) != 2 {
		panic(fmt.Sprintf("loss: CrossEntropy logits shape %v, want 2-D", logits.Shape))
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("loss: %d labels for batch of %d", len(labels), n))
	}
	g := viewLike(grad, logits)
	var total float64
	for i := 0; i < n; i++ {
		lbl := labels[i]
		if lbl < 0 || lbl >= k {
			panic(fmt.Sprintf("loss: label %d outside [0,%d)", lbl, k))
		}
		probs := g[i*k : (i+1)*k]
		copy(probs, logits.Data[i*k:(i+1)*k])
		nn.SoftmaxRow(probs)
		p := float64(probs[lbl])
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(p)
		probs[lbl] -= 1
	}
	grad.Scale(1 / float32(n))
	return total / float64(n)
}

// viewLike re-views grad at out's shape over the start of grad's backing
// array, replacing the array only when it is too short, and returns its data.
func viewLike(grad, out *tensor.Tensor) []float32 {
	if cap(grad.Data) < len(out.Data) {
		grad.Data = make([]float32, len(out.Data))
	}
	grad.Shape = append(grad.Shape[:0], out.Shape...)
	grad.Data = grad.Data[:len(out.Data)]
	return grad.Data
}
