// Package train implements the minibatch training loop for the paper's
// models: classifier training with softmax cross-entropy (LeNet, BranchyNet
// branches) and regression training with MSE (the converting autoencoder).
//
// Parallelism lives in the layers rather than in the loop: the convolution
// and pooling layers split the batch's samples over tensor.ParallelFor,
// while every GEMM, the dense layers' included, runs serially on the
// goroutine that calls it. A single sequential epoch driver keeps optimizer
// semantics simple.
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

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	Optimizer *opt.Adam
	// ClipNorm bounds the global gradient L2 norm; 0 disables clipping.
	ClipNorm float64
	Seed     uint64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

func (c *Config) validate() error {
	if c.Epochs <= 0 {
		return fmt.Errorf("train: non-positive epochs %d", c.Epochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("train: non-positive batch size %d", c.BatchSize)
	}
	if c.Optimizer == nil {
		return fmt.Errorf("train: nil optimizer")
	}
	return nil
}

// step applies one optimizer update to net's gradients, clipped first when
// ClipNorm is set.
func (c *Config) step(net *nn.Sequential) {
	if c.ClipNorm > 0 {
		opt.ClipGradNorm(net.Params(), c.ClipNorm)
	}
	c.Optimizer.Step(net.Params())
}

// History records per-epoch statistics of a run.
type History struct {
	// EpochLoss holds the mean training loss of each epoch.
	EpochLoss []float64
	// EpochAccuracy holds the training accuracy per epoch (classifier runs
	// only; empty for regression).
	EpochAccuracy []float64
}

// Classifier trains net on ds with softmax cross-entropy.
func Classifier(net *nn.Sequential, ds *dataset.Dataset, cfg Config) (*History, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("train: empty dataset")
	}
	r := rng.New(cfg.Seed ^ 0x7121A111)
	h := &History{}
	n := ds.Len()
	xBuf := tensor.New(cfg.BatchSize, dataset.Pixels)
	lblBuf := make([]int, cfg.BatchSize)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		var epochLoss float64
		var correct, seen int
		for i0 := 0; i0 < n; i0 += cfg.BatchSize {
			i1 := i0 + cfg.BatchSize
			if i1 > n {
				i1 = n
			}
			bs := i1 - i0
			x := gatherImages(xBuf, ds, perm[i0:i1])
			labels := lblBuf[:bs]
			for j, p := range perm[i0:i1] {
				labels[j] = ds.Labels[p]
			}
			logits := net.Forward(x)
			l, grad := loss.CrossEntropy(logits, labels)
			epochLoss += l * float64(bs)
			correct += int(loss.Accuracy(logits, labels)*float64(bs) + 0.5)
			seen += bs
			net.Backward(grad)
			cfg.step(net)
		}
		h.EpochLoss = append(h.EpochLoss, epochLoss/float64(seen))
		h.EpochAccuracy = append(h.EpochAccuracy, float64(correct)/float64(seen))
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d loss %.4f acc %.4f\n",
				net.Name(), epoch+1, cfg.Epochs, h.EpochLoss[epoch], h.EpochAccuracy[epoch])
		}
	}
	return h, nil
}

// Regressor trains net to map inputs to targets (both (N, D)) with MSE —
// the converting autoencoder's objective. extraLoss, when non-nil, is
// queried after each batch for auxiliary penalty reporting (e.g. the L1
// activity regularizer; its gradient is injected by the layer itself).
func Regressor(net *nn.Sequential, inputs, targets *tensor.Tensor, cfg Config, extraLoss func() float64) (*History, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(inputs.Shape) != 2 || !sameOuter(inputs, targets) {
		return nil, fmt.Errorf("train: inputs %v and targets %v incompatible", inputs.Shape, targets.Shape)
	}
	n := inputs.Shape[0]
	if n == 0 {
		return nil, fmt.Errorf("train: empty inputs")
	}
	inW, tgW := inputs.Shape[1], targets.Shape[1]
	r := rng.New(cfg.Seed ^ 0x7121A222)
	h := &History{}
	xBuf := tensor.New(cfg.BatchSize, inW)
	tBuf := tensor.New(cfg.BatchSize, tgW)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		var epochLoss float64
		var seen int
		for i0 := 0; i0 < n; i0 += cfg.BatchSize {
			i1 := i0 + cfg.BatchSize
			if i1 > n {
				i1 = n
			}
			bs := i1 - i0
			x := gatherRows(xBuf, inputs, perm[i0:i1])
			tg := gatherRows(tBuf, targets, perm[i0:i1])
			pred := net.Forward(x)
			l, grad := loss.MSE(pred, tg)
			if extraLoss != nil {
				l += extraLoss()
			}
			epochLoss += l * float64(bs)
			seen += bs
			net.Backward(grad)
			cfg.step(net)
		}
		h.EpochLoss = append(h.EpochLoss, epochLoss/float64(seen))
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d loss %.6f\n",
				net.Name(), epoch+1, cfg.Epochs, h.EpochLoss[epoch])
		}
	}
	return h, nil
}

// EvalClassifier returns net's accuracy on ds, running net's compiled plan
// (nn.Run) in batches of 256.
func EvalClassifier(net *nn.Sequential, ds *dataset.Dataset) float64 {
	const bs = 256
	n := ds.Len()
	if n == 0 {
		return 0
	}
	correct := 0
	for i0 := 0; i0 < n; i0 += bs {
		i1 := i0 + bs
		if i1 > n {
			i1 = n
		}
		x, labels := ds.Batch(i0, i1)
		logits := nn.Run(net, x)
		correct += int(loss.Accuracy(logits, labels)*float64(i1-i0) + 0.5)
	}
	return float64(correct) / float64(n)
}

// gatherImages copies dataset rows idx into the head of buf and returns the
// (len(idx), 784) view.
func gatherImages(buf *tensor.Tensor, ds *dataset.Dataset, idx []int) *tensor.Tensor {
	w := dataset.Pixels
	for j, p := range idx {
		copy(buf.Data[j*w:(j+1)*w], ds.Image(p))
	}
	return tensor.FromSlice(buf.Data[:len(idx)*w], len(idx), w)
}

// gatherRows copies rows idx of src into the head of buf and returns the
// (len(idx), w) view.
func gatherRows(buf, src *tensor.Tensor, idx []int) *tensor.Tensor {
	w := src.Shape[1]
	for j, p := range idx {
		copy(buf.Data[j*w:(j+1)*w], src.Data[p*w:(p+1)*w])
	}
	return tensor.FromSlice(buf.Data[:len(idx)*w], len(idx), w)
}

func sameOuter(a, b *tensor.Tensor) bool {
	return len(a.Shape) == 2 && len(b.Shape) == 2 && a.Shape[0] == b.Shape[0]
}
