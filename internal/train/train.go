// Package train holds the one minibatch loop every model here is trained
// by, and the one batched pass every accuracy is read from.
//
// Minibatches runs the epochs: a fresh permutation per epoch, batches of
// BatchSize rows gathered in its order, the caller's Step (forward, loss,
// backward), then an Adam step at LR. Classifier (softmax cross-entropy:
// LeNet, the pruned candidates) and Regressor (MSE: the converting
// autoencoder) run it with their Steps, BranchyNet's joint training and
// the latent head with theirs. Each caller names its own RNG salt, so two
// trainers given one seed walk different permutations.
//
// EvalBatches reads a dataset in 256-row batches in order; Accuracy, and
// every inference pass over a whole dataset, go through it.
//
// Training runs on the goroutine that calls it: each conv and dense pass is
// one product over the whole minibatch, and nothing beneath starts a
// goroutine. A step propagates through Sequential.BackwardParams, so a
// network's first layer builds no input gradient nobody reads.
package train

import (
	"fmt"
	"io"

	"cbnet/internal/dataset"
	"cbnet/internal/loss"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

const (
	// BatchSize is the minibatch of every training run.
	BatchSize = 32
	// LR is the Adam learning rate of every training run.
	LR = 0.002
	// evalRows is the batch of every evaluation pass. A dense step's bits
	// depend on its batch size, so every pass reads the same batches.
	evalRows = 256
)

// Config controls a training run.
type Config struct {
	Epochs int
	Seed   uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// Step runs one minibatch's forward pass, loss and backward pass. x holds
// the batch's input rows and idx the sample index of each row. It returns
// the batch's mean loss.
type Step func(x *tensor.Tensor, idx []int) float64

// Minibatches trains params for cfg.Epochs epochs over the rows of inputs:
// each epoch draws a permutation from an RNG seeded with cfg.Seed ^ salt,
// and each BatchSize-row slice of it is gathered, handed to step and
// followed by one Adam step over params. It returns each epoch's mean loss;
// name labels the log lines.
func Minibatches(name string, inputs *tensor.Tensor, params []*nn.Param, salt uint64, cfg Config, step Step) ([]float64, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("train: non-positive epochs %d", cfg.Epochs)
	}
	n := inputs.Shape[0]
	if n == 0 {
		return nil, fmt.Errorf("train: empty inputs")
	}
	w := inputs.Shape[1]
	r := rng.New(cfg.Seed ^ salt)
	adam := opt.NewAdam(LR)
	buf := tensor.New(BatchSize, w)
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		var sum float64
		for i0 := 0; i0 < n; i0 += BatchSize {
			idx := perm[i0:min(i0+BatchSize, n)]
			for j, p := range idx {
				copy(buf.Data[j*w:(j+1)*w], inputs.Data[p*w:(p+1)*w])
			}
			x := tensor.FromSlice(buf.Data[:len(idx)*w], len(idx), w)
			sum += step(x, idx) * float64(len(idx))
			adam.Step(params)
		}
		losses = append(losses, sum/float64(n))
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d loss %.6f\n", name, epoch+1, cfg.Epochs, losses[epoch])
		}
	}
	return losses, nil
}

// CrossEntropy is the Step that trains net to predict labels[i] for sample
// i with softmax cross-entropy.
func CrossEntropy(net *nn.Sequential, labels []int) Step {
	buf := make([]int, BatchSize)
	return func(x *tensor.Tensor, idx []int) float64 {
		lbl := buf[:len(idx)]
		for j, p := range idx {
			lbl[j] = labels[p]
		}
		l, grad := loss.CrossEntropy(net.Forward(x), lbl)
		net.BackwardParams(grad)
		return l
	}
}

// Classifier trains net on ds with softmax cross-entropy and returns each
// epoch's mean loss.
func Classifier(net *nn.Sequential, ds *dataset.Dataset, cfg Config) ([]float64, error) {
	return Minibatches(net.Name(), ds.Images, net.Params(), 0x7121A111, cfg, CrossEntropy(net, ds.Labels))
}

// Regressor trains net to map inputs to targets (both (N, D)) with MSE —
// the converting autoencoder's objective — and returns each epoch's mean
// loss. extraLoss, when non-nil, is added to each batch's reported loss
// (the L1 activity regularizer's penalty; the layer injects its gradient
// itself).
func Regressor(net *nn.Sequential, inputs, targets *tensor.Tensor, cfg Config, extraLoss func() float64) ([]float64, error) {
	if len(inputs.Shape) != 2 || len(targets.Shape) != 2 || inputs.Shape[0] != targets.Shape[0] {
		return nil, fmt.Errorf("train: inputs %v and targets %v incompatible", inputs.Shape, targets.Shape)
	}
	tw := targets.Shape[1]
	tBuf := tensor.New(BatchSize, tw)
	return Minibatches(net.Name(), inputs, net.Params(), 0x7121A222, cfg, func(x *tensor.Tensor, idx []int) float64 {
		for j, p := range idx {
			copy(tBuf.Data[j*tw:(j+1)*tw], targets.Data[p*tw:(p+1)*tw])
		}
		l, grad := loss.MSE(net.Forward(x), tensor.FromSlice(tBuf.Data[:len(idx)*tw], len(idx), tw))
		if extraLoss != nil {
			l += extraLoss()
		}
		net.BackwardParams(grad)
		return l
	})
}

// EvalBatches calls fn on ds's rows in 256-row batches, in order: x holds
// the rows from i0 on and labels their classes.
func EvalBatches(ds *dataset.Dataset, fn func(i0 int, x *tensor.Tensor, labels []int)) {
	for i0, n := 0, ds.Len(); i0 < n; i0 += evalRows {
		x, labels := ds.Batch(i0, min(i0+evalRows, n))
		fn(i0, x, labels)
	}
}

// Accuracy returns the share of ds's samples that classify puts in their
// class. classify writes the class of each row of x into dst.
func Accuracy(ds *dataset.Dataset, classify func(dst []int, x *tensor.Tensor)) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	pred := make([]int, evalRows)
	EvalBatches(ds, func(_ int, x *tensor.Tensor, labels []int) {
		dst := pred[:len(labels)]
		classify(dst, x)
		for j, p := range dst {
			if p == labels[j] {
				correct++
			}
		}
	})
	return float64(correct) / float64(ds.Len())
}

// EvalClassifier returns net's accuracy on ds, running net's compiled plan
// (nn.Run).
func EvalClassifier(net *nn.Sequential, ds *dataset.Dataset) float64 {
	return Accuracy(ds, func(dst []int, x *tensor.Tensor) { nn.Run(net, x).ArgMaxRows(dst) })
}
