package models

import (
	"cbnet/internal/dataset"
	"cbnet/internal/loss"
	"cbnet/internal/metrics"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
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

// BranchWeight and MainWeight scale the branch's and the main exit's
// cross-entropy in BranchyNet's joint loss. The branch weighs more, so it
// grows strong enough to exit confidently.
const (
	BranchWeight = 1
	MainWeight   = 0.5
)

// TrainJointly optimizes the weighted sum of the branch and main-exit
// cross-entropies, the paper's "jointly trains the branches with the
// original network": both heads train together, so the stem learns features
// useful to each.
func (b *BranchyNet) TrainJointly(ds *dataset.Dataset, cfg train.Config) error {
	var plans [3]*nn.TrainPlan
	for i, net := range []*nn.Sequential{b.Stem, b.Branch, b.Trunk} {
		p, err := nn.CompileTraining(net, train.BatchSize)
		if err != nil {
			return err
		}
		plans[i] = p
	}
	stem, branch, trunk := plans[0], plans[1], plans[2]
	lbl := make([]int, train.BatchSize)
	_, err := train.Minibatches("branchynet", ds.Images, b.Params(), 0xB7A9C4, cfg, func(x *tensor.Tensor, idx []int) float64 {
		labels := lbl[:len(idx)]
		for j, p := range idx {
			labels[j] = ds.Labels[p]
		}
		stemOut := stem.Forward(x)
		lb, gb := loss.CrossEntropy(branch.Forward(stemOut), labels)
		lm, gm := loss.CrossEntropy(trunk.Forward(stemOut), labels)
		gb.Scale(BranchWeight)
		gm.Scale(MainWeight)

		stemGrad := branch.Backward(gb)
		stemGrad.AddInPlace(trunk.Backward(gm))
		stem.BackwardParams(stemGrad)
		return BranchWeight*lb + MainWeight*lm
	})
	return err
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
	n := ds.Len()
	out := InferenceResult{
		Pred:          make([]int, n),
		Exited:        make([]bool, n),
		BranchEntropy: make([]float64, n),
	}
	train.EvalBatches(ds, func(i0 int, x *tensor.Tensor, _ []int) {
		r := b.Infer(x)
		copy(out.Pred[i0:], r.Pred)
		copy(out.Exited[i0:], r.Exited)
		copy(out.BranchEntropy[i0:], r.BranchEntropy)
	})
	return out
}

// Evaluate returns, from one pass over ds, the classification accuracy with
// early exiting active and the share of samples that exit at the branch —
// the statistic behind the paper's Fig. 3 and §IV-D (94.88% MNIST, 76.91%
// FMNIST, 63.08% KMNIST).
func (b *BranchyNet) Evaluate(ds *dataset.Dataset) (accuracy, exitRate float64) {
	if ds.Len() == 0 {
		return 0, 0
	}
	exits := 0
	accuracy = train.Accuracy(ds, func(dst []int, x *tensor.Tensor) {
		r := b.Infer(x)
		copy(dst, r.Pred)
		for _, e := range r.Exited {
			if e {
				exits++
			}
		}
	})
	return accuracy, float64(exits) / float64(ds.Len())
}

// TuneThreshold sweeps candidate entropy thresholds on a validation set and
// returns the one maximizing exitRate while keeping accuracy within
// maxAccuracyDrop of the trunk-only accuracy — the "thresholds were tuned to
// achieve the maximum performance" protocol.
func (b *BranchyNet) TuneThreshold(val *dataset.Dataset, maxAccuracyDrop float64) float64 {
	orig := b.Threshold
	// Trunk-only reference: threshold below any achievable entropy.
	b.Threshold = -1
	ref, _ := b.Evaluate(val)
	best := orig
	bestRate := -1.0
	for _, th := range []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.4, 1.8} {
		b.Threshold = th
		acc, rate := b.Evaluate(val)
		if acc+1e-9 >= ref-maxAccuracyDrop && rate > bestRate {
			bestRate, best = rate, th
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
