package models

import (
	"math"

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
	gb, gm := new(tensor.Tensor), new(tensor.Tensor)
	_, err := train.Minibatches("branchynet", ds.Images, b.Params(), 0xB7A9C4, cfg, func(x *tensor.Tensor, idx []int) float64 {
		labels := lbl[:len(idx)]
		for j, p := range idx {
			labels[j] = ds.Labels[p]
		}
		stemOut := stem.Forward(x)
		lb := loss.CrossEntropy(gb, branch.Forward(stemOut), labels)
		lm := loss.CrossEntropy(gm, trunk.Forward(stemOut), labels)
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

// Cascade is BranchyNet's exit cascade: its stem, branch and trunk plans,
// compiled at one batch capacity. Like a plan it serves one goroutine, and
// a warm run allocates nothing.
type Cascade struct{ stem, branch, trunk *nn.Plan }

// CompileCascade compiles b's exit cascade for batches of up to batchCap
// rows.
func (b *BranchyNet) CompileCascade(batchCap int) *Cascade {
	return &Cascade{nn.MustCompile(b.Stem, batchCap), nn.MustCompile(b.Branch, batchCap), nn.MustCompile(b.Trunk, batchCap)}
}

// Run classifies x into the first x.Shape[0] entries of res's slices: a row
// whose branch entropy is below threshold exits with the branch's answer;
// the others are gathered to the front of the stem's output view, which is
// narrowed to them, and the trunk runs on them alone.
func (c *Cascade) Run(res InferenceResult, x *tensor.Tensor, threshold float64) {
	feat := c.stem.Execute(nil, x)
	probs := c.branch.Execute(nil, feat)
	k, w, m := probs.Shape[1], feat.Shape[1], 0
	for i := range x.Shape[0] {
		p := probs.Data[i*k : (i+1)*k]
		nn.SoftmaxRow(p)
		res.BranchEntropy[i] = metrics.Entropy(p)
		if res.Exited[i] = res.BranchEntropy[i] < threshold; res.Exited[i] {
			res.Pred[i] = argmax32(p)
		} else {
			copy(feat.Data[m*w:], feat.Data[i*w:(i+1)*w])
			m++
		}
	}
	if m == 0 {
		return
	}
	feat.Shape[0], feat.Data = m, feat.Data[:m*w]
	logits := c.trunk.Execute(nil, feat).Data
	for i, j := 0, 0; j < m; i++ {
		if !res.Exited[i] {
			res.Pred[i] = argmax32(logits[j*k : (j+1)*k])
			j++
		}
	}
}

// InferDataset classifies every sample of ds with early exiting at
// b.Threshold, on one cascade compiled for the pass.
func (b *BranchyNet) InferDataset(ds *dataset.Dataset) InferenceResult {
	return b.CompileCascade(train.EvalRows).inferDataset(ds, b.Threshold)
}

// inferDataset runs the cascade over ds at threshold, a batch at a time.
func (c *Cascade) inferDataset(ds *dataset.Dataset, threshold float64) InferenceResult {
	n := ds.Len()
	r := InferenceResult{Pred: make([]int, n), Exited: make([]bool, n), BranchEntropy: make([]float64, n)}
	train.EvalBatches(ds, func(i0 int, x *tensor.Tensor, _ []int) {
		c.Run(InferenceResult{Pred: r.Pred[i0:], Exited: r.Exited[i0:], BranchEntropy: r.BranchEntropy[i0:]}, x, threshold)
	})
	return r
}

// Evaluate returns, from one pass over ds, the classification accuracy with
// early exiting active and the share of samples that exit at the branch —
// the statistic behind the paper's Fig. 3 and §IV-D (94.88% MNIST, 76.91%
// FMNIST, 63.08% KMNIST).
func (b *BranchyNet) Evaluate(ds *dataset.Dataset) (accuracy, exitRate float64) {
	r := b.InferDataset(ds)
	return score(ds.Labels, r.BranchEntropy, b.Threshold, r.Pred, r.Pred)
}

// score returns the accuracy and exit rate of answering row i with branch[i]
// if its branch entropy h[i] is below th, else trunk[i]: 0, 0 for no rows.
func score(labels []int, h []float64, th float64, branch, trunk []int) (accuracy, exitRate float64) {
	correct, exits := 0, 0
	for i, hi := range h {
		p := trunk[i]
		if hi < th {
			p = branch[i]
			exits++
		}
		if p == labels[i] {
			correct++
		}
	}
	n := float64(max(len(labels), 1))
	return float64(correct) / n, float64(exits) / n
}

// TuneThreshold sets b.Threshold to, and returns, the candidate with the
// highest exit rate on val whose accuracy is within maxAccuracyDrop of the
// trunk-only accuracy — the "thresholds were tuned to achieve the maximum
// performance" protocol. It reads val twice, every row exiting and then
// none: a trunk row's bits do not depend on its batch-mates, so each
// candidate's cascade takes each row's answer from one of the two.
func (b *BranchyNet) TuneThreshold(val *dataset.Dataset, maxAccuracyDrop float64) float64 {
	c := b.CompileCascade(train.EvalRows)
	branch, trunk := c.inferDataset(val, math.Inf(1)), c.inferDataset(val, -1)
	ref, _ := score(val.Labels, branch.BranchEntropy, -1, branch.Pred, trunk.Pred)
	best, bestRate := b.Threshold, -1.0
	for _, th := range []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.4, 1.8} {
		acc, rate := score(val.Labels, branch.BranchEntropy, th, branch.Pred, trunk.Pred)
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
