package models

import (
	"fmt"
	"io"

	"cbnet/internal/dataset"
	"cbnet/internal/loss"
	"cbnet/internal/metrics"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// BranchyNet is the BranchyNet-LeNet early-exit network (Teerapittayanon et
// al., reproduced per the paper's §IV-B1): a shared stem, a cheap side
// branch whose softmax entropy decides early exits, and the deep trunk that
// finishes classification for low-confidence samples.
type BranchyNet struct {
	Stem   *nn.Sequential
	Branch *nn.Sequential
	Trunk  *nn.Sequential
	// Threshold is the entropy exit threshold in nats: samples whose branch
	// prediction entropy falls below it exit early. The paper tunes 0.05
	// (MNIST), 0.5 (FMNIST) and 0.025 (KMNIST).
	Threshold float64
}

// DefaultThreshold returns the paper's tuned exit threshold per dataset.
func DefaultThreshold(f dataset.Family) float64 {
	switch f {
	case dataset.MNIST:
		return 0.05
	case dataset.FashionMNIST:
		return 0.5
	case dataset.KMNIST:
		return 0.025
	default:
		return 0.1
	}
}

// NewBranchyLeNet builds an untrained BranchyNet-LeNet.
func NewBranchyLeNet(r *rng.RNG, threshold float64) *BranchyNet {
	return &BranchyNet{
		Stem:      newStem(r),
		Branch:    newBranch(r),
		Trunk:     newTrunk(r),
		Threshold: threshold,
	}
}

// Params returns all trainable parameters across the three segments.
func (b *BranchyNet) Params() []*nn.Param {
	ps := b.Stem.Params()
	ps = append(ps, b.Branch.Params()...)
	ps = append(ps, b.Trunk.Params()...)
	return ps
}

// JointTrainConfig controls BranchyNet's joint training.
type JointTrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer *opt.Adam
	// BranchWeight and MainWeight scale the two cross-entropy terms of the
	// joint loss; BranchyNet trains both heads together so the stem learns
	// features useful to each.
	BranchWeight, MainWeight float32
	Seed                     uint64
	Log                      io.Writer
}

// TrainJointly optimizes the weighted sum of the branch and main-exit
// cross-entropies, the paper's "jointly trains the branches with the
// original network".
func (b *BranchyNet) TrainJointly(ds *dataset.Dataset, cfg JointTrainConfig) error {
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return fmt.Errorf("models: bad joint train config %+v", cfg)
	}
	if cfg.Optimizer == nil {
		return fmt.Errorf("models: nil optimizer")
	}
	if cfg.BranchWeight == 0 && cfg.MainWeight == 0 {
		return fmt.Errorf("models: both loss weights zero")
	}
	r := rng.New(cfg.Seed ^ 0xB7A9C4)
	n := ds.Len()
	xBuf := tensor.New(cfg.BatchSize, dataset.Pixels)
	params := b.Params()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(n)
		var sumLoss float64
		var seen int
		for i0 := 0; i0 < n; i0 += cfg.BatchSize {
			i1 := i0 + cfg.BatchSize
			if i1 > n {
				i1 = n
			}
			bs := i1 - i0
			for j, p := range perm[i0:i1] {
				copy(xBuf.Data[j*dataset.Pixels:(j+1)*dataset.Pixels], ds.Image(p))
			}
			x := tensor.FromSlice(xBuf.Data[:bs*dataset.Pixels], bs, dataset.Pixels)
			labels := make([]int, bs)
			for j, p := range perm[i0:i1] {
				labels[j] = ds.Labels[p]
			}

			stemOut := b.Stem.Forward(x)
			branchLogits := b.Branch.Forward(stemOut)
			mainLogits := b.Trunk.Forward(stemOut)

			lb, gb := loss.CrossEntropy(branchLogits, labels)
			lm, gm := loss.CrossEntropy(mainLogits, labels)
			gb.Scale(cfg.BranchWeight)
			gm.Scale(cfg.MainWeight)

			stemGrad := b.Branch.Backward(gb)
			stemGrad.AddInPlace(b.Trunk.Backward(gm))
			b.Stem.Backward(stemGrad)

			cfg.Optimizer.Step(params)
			sumLoss += (float64(cfg.BranchWeight)*lb + float64(cfg.MainWeight)*lm) * float64(bs)
			seen += bs
		}
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "branchynet epoch %d/%d joint-loss %.4f\n", epoch+1, cfg.Epochs, sumLoss/float64(seen))
		}
	}
	return nil
}

// InferenceResult reports BranchyNet's decision for a batch.
type InferenceResult struct {
	// Pred holds the chosen class per sample.
	Pred []int
	// Exited reports whether each sample exited at the branch.
	Exited []bool
	// BranchEntropy holds the branch softmax entropy (nats) per sample.
	BranchEntropy []float64
}

// Infer classifies a batch with early exiting: the stem and branch run for
// every sample; only the low-confidence remainder enters the trunk.
func (b *BranchyNet) Infer(x *tensor.Tensor) InferenceResult {
	n := x.Shape[0]
	res := InferenceResult{
		Pred:          make([]int, n),
		Exited:        make([]bool, n),
		BranchEntropy: make([]float64, n),
	}
	stemOut := nn.Run(b.Stem, x)
	branchLogits := nn.Run(b.Branch, stemOut)
	k := dataset.NumClasses

	var hardRows []int
	probs := make([]float32, k)
	for i := 0; i < n; i++ {
		copy(probs, branchLogits.Data[i*k:(i+1)*k])
		nn.SoftmaxRow(probs)
		h := metrics.Entropy(probs)
		res.BranchEntropy[i] = h
		if h < b.Threshold {
			res.Exited[i] = true
			res.Pred[i] = argmax32(probs)
		} else {
			hardRows = append(hardRows, i)
		}
	}
	if len(hardRows) > 0 {
		stemW := stemOut.Shape[1]
		sub := tensor.New(len(hardRows), stemW)
		for j, i := range hardRows {
			copy(sub.Data[j*stemW:(j+1)*stemW], stemOut.Data[i*stemW:(i+1)*stemW])
		}
		mainLogits := nn.Run(b.Trunk, sub)
		for j, i := range hardRows {
			res.Pred[i] = mainLogits.Row(j).ArgMax()
		}
	}
	return res
}

// InferDataset runs Infer over a dataset in batches and concatenates the
// results.
func (b *BranchyNet) InferDataset(ds *dataset.Dataset) InferenceResult {
	const bs = 256
	n := ds.Len()
	out := InferenceResult{
		Pred:          make([]int, n),
		Exited:        make([]bool, n),
		BranchEntropy: make([]float64, n),
	}
	for i0 := 0; i0 < n; i0 += bs {
		i1 := i0 + bs
		if i1 > n {
			i1 = n
		}
		x, _ := ds.Batch(i0, i1)
		r := b.Infer(x)
		copy(out.Pred[i0:i1], r.Pred)
		copy(out.Exited[i0:i1], r.Exited)
		copy(out.BranchEntropy[i0:i1], r.BranchEntropy)
	}
	return out
}

// Accuracy returns classification accuracy with early exiting active.
func (b *BranchyNet) Accuracy(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	res := b.InferDataset(ds)
	correct := 0
	for i, p := range res.Pred {
		if p == ds.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}

// EarlyExitRate returns the fraction of samples that exit at the branch —
// the statistic behind the paper's Fig. 3 and §IV-D (94.88% MNIST, 76.91%
// FMNIST, 63.08% KMNIST).
func (b *BranchyNet) EarlyExitRate(ds *dataset.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	res := b.InferDataset(ds)
	n := 0
	for _, e := range res.Exited {
		if e {
			n++
		}
	}
	return float64(n) / float64(ds.Len())
}

// TuneThreshold sweeps candidate entropy thresholds on a validation set and
// returns the one maximizing exitRate while keeping accuracy within
// maxAccuracyDrop of the trunk-only accuracy — the "thresholds were tuned to
// achieve the maximum performance" protocol.
func (b *BranchyNet) TuneThreshold(val *dataset.Dataset, maxAccuracyDrop float64) float64 {
	orig := b.Threshold
	// Trunk-only reference: threshold below any achievable entropy.
	b.Threshold = -1
	ref := b.Accuracy(val)
	best := orig
	bestRate := -1.0
	for _, th := range []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.4, 1.8} {
		b.Threshold = th
		acc := b.Accuracy(val)
		if acc+1e-9 >= ref-maxAccuracyDrop {
			rate := b.EarlyExitRate(val)
			if rate > bestRate {
				bestRate, best = rate, th
			}
		}
	}
	b.Threshold = best
	return best
}

func argmax32(xs []float32) int {
	best, arg := xs[0], 0
	for i, v := range xs[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return arg
}
