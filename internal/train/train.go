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
// EvalBatches reads a dataset in EvalRows-row batches in order; Accuracy,
// and every inference pass over a whole dataset, go through it.
//
// Every trainer steps through a training plan of its network
// (nn.CompileTraining: the steps an inference plan runs, each keeping its
// output for the backward pass), compiled at BatchSize when training starts
// and dropped when it ends, so a trained network carries no training
// scratch. Training runs on the goroutine that calls it: each conv and dense
// pass is one product over the whole minibatch, and nothing beneath starts a
// goroutine. A step propagates through the plan's BackwardParams, so a
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
	// EvalRows is the batch of every evaluation pass: it bounds what one
	// pass holds (the rows, their activations and the plans, compiled once
	// per pass at this capacity) whatever the dataset's size.
	EvalRows = 256
)

// Config controls a training run.
type Config struct {
	Epochs int
	Seed   uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// Step runs one minibatch's forward pass, loss and backward pass. x holds
// the batch's input rows and idx the sample index of each row; both are
// rewritten for the next batch. It returns the batch's mean loss.
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
	// One header over one buffer serves every batch: each batch reslices
	// its row count and data.
	buf, x := make([]float32, BatchSize*w), &tensor.Tensor{Shape: []int{0, w}}
	losses := make([]float64, 0, cfg.Epochs)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		var sum float64
		for i0 := 0; i0 < n; i0 += BatchSize {
			idx := perm[i0:min(i0+BatchSize, n)]
			for j, p := range idx {
				copy(buf[j*w:(j+1)*w], inputs.Data[p*w:(p+1)*w])
			}
			x.Shape[0], x.Data = len(idx), buf[:len(idx)*w]
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

// CrossEntropy returns the Step that trains net to predict labels[i] for
// sample i with softmax cross-entropy, through a training plan of net.
func CrossEntropy(net *nn.Sequential, labels []int) (Step, error) {
	plan, err := nn.CompileTraining(net, BatchSize)
	if err != nil {
		return nil, err
	}
	buf, grad := make([]int, BatchSize), new(tensor.Tensor)
	return func(x *tensor.Tensor, idx []int) float64 {
		lbl := buf[:len(idx)]
		for j, p := range idx {
			lbl[j] = labels[p]
		}
		l := loss.CrossEntropy(grad, plan.Forward(x), lbl)
		plan.BackwardParams(grad)
		return l
	}, nil
}

// Classifier trains net on ds with softmax cross-entropy and returns each
// epoch's mean loss.
func Classifier(net *nn.Sequential, ds *dataset.Dataset, cfg Config) ([]float64, error) {
	step, err := CrossEntropy(net, ds.Labels)
	if err != nil {
		return nil, err
	}
	return Minibatches(net.Name(), ds.Images, net.Params(), 0x7121A111, cfg, step)
}

// Regressor trains net to map inputs to targets (both (N, D)) with MSE —
// the converting autoencoder's objective — and returns each epoch's mean
// loss. Each batch's loss includes the L1 penalty of the network's activity
// regularizers, whose gradient the training plan adds itself.
func Regressor(net *nn.Sequential, inputs, targets *tensor.Tensor, cfg Config) ([]float64, error) {
	if len(inputs.Shape) != 2 || len(targets.Shape) != 2 || inputs.Shape[0] != targets.Shape[0] {
		return nil, fmt.Errorf("train: inputs %v and targets %v incompatible", inputs.Shape, targets.Shape)
	}
	plan, err := nn.CompileTraining(net, BatchSize)
	if err != nil {
		return nil, err
	}
	tw := targets.Shape[1]
	tBuf, t, grad := make([]float32, BatchSize*tw), &tensor.Tensor{Shape: []int{0, tw}}, new(tensor.Tensor)
	return Minibatches(net.Name(), inputs, net.Params(), 0x7121A222, cfg, func(x *tensor.Tensor, idx []int) float64 {
		for j, p := range idx {
			copy(tBuf[j*tw:(j+1)*tw], targets.Data[p*tw:(p+1)*tw])
		}
		t.Shape[0], t.Data = len(idx), tBuf[:len(idx)*tw]
		l := loss.MSE(grad, plan.Forward(x), t)
		l += plan.Penalty()
		plan.BackwardParams(grad)
		return l
	})
}

// EvalBatches calls fn on ds's rows in EvalRows-row batches, in order: x holds
// the rows from i0 on and labels their classes.
func EvalBatches(ds *dataset.Dataset, fn func(i0 int, x *tensor.Tensor, labels []int)) {
	for i0, n := 0, ds.Len(); i0 < n; i0 += EvalRows {
		x, labels := ds.Batch(i0, min(i0+EvalRows, n))
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
	pred := make([]int, EvalRows)
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

// EvalClassifier returns net's accuracy on ds, running one plan of net
// compiled at EvalRows on every batch.
func EvalClassifier(net *nn.Sequential, ds *dataset.Dataset) float64 {
	plan := nn.MustCompile(net, EvalRows)
	return Accuracy(ds, func(dst []int, x *tensor.Tensor) { plan.Execute(nil, x).ArgMaxRows(dst) })
}
