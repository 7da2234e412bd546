// Package core implements CBNet, the paper's primary contribution: a
// converting autoencoder that transforms hard images into easy images of
// the same class, chained with the lightweight DNN classifier extracted
// from BranchyNet's early-exit branch (Fig. 2). It also provides the
// training workflow of Fig. 4 (easy/hard labelling via BranchyNet exits,
// conversion-pair construction, autoencoder training) and the latency and
// energy accounting used throughout the evaluation.
package core

import (
	"fmt"
	"math"
	"sync"

	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/power"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// Pipeline is the CBNet inference path: every image is pushed through the
// converting autoencoder and the resulting easy image through the
// lightweight classifier. "The inference latency of CBNet is the sum of the
// execution time spent in the autoencoder and the lightweight DNN
// classifier" (§I).
//
// Serving runs on compiled execution plans (nn.Compile): the pipeline keeps
// a private, mutex-guarded PlanSet for its own methods and hands fresh sets
// to concurrent callers via Plans (engine workers own one each). The
// networks are built in code, not read from outside, so one the compiler
// rejects is a programming error: Plans returns it, the pipeline's own
// inference methods panic with it.
type Pipeline struct {
	AE         *models.ConvertingAE
	Classifier *nn.Sequential

	// mu guards the lazily compiled plan set used by the pipeline's own
	// inference methods.
	mu    sync.Mutex
	plans *PlanSet
	// plansAE/plansCls record which networks the cached set was compiled
	// from: replacing the exported AE/Classifier fields invalidates the
	// cache on the next call. In-place weight updates need no invalidation
	// — plans read the parameter tensors, and re-pack what they hold packed
	// after a Param.Touch.
	plansAE  *models.ConvertingAE
	plansCls *nn.Sequential
}

// PlanSet bundles the compiled AE and classifier plans of one pipeline at a
// fixed batch capacity. A PlanSet owns its buffers and serves one
// goroutine; compile one per worker via Pipeline.Plans (or PlanSetFor on
// the classifier for the AE-free easy route). The plans read the
// pipeline's parameters, not copies, and serve their values as of the last
// nn.Param.Touch (the optimisers and the checkpoint loader call it).
type PlanSet struct {
	ae  *nn.Plan
	cls *nn.Plan
	cap int
}

// Plans compiles a fresh full plan set (AE + classifier) for batches of up
// to batchCap images.
func (p *Pipeline) Plans(batchCap int) (*PlanSet, error) {
	ae, err := p.AE.CompilePlan(batchCap)
	if err != nil {
		return nil, err
	}
	cls, err := nn.Compile(p.Classifier, batchCap)
	if err != nil {
		return nil, fmt.Errorf("core: classifier plan: %w", err)
	}
	return &PlanSet{ae: ae, cls: cls, cap: batchCap}, nil
}

// PlanSetFor compiles a standalone pixels→logits network — the pipeline's
// own classifier for the easy route, which never runs the autoencoder, or a
// pruned or early-exit family member from internal/compress or models —
// into a classifier-only plan set, so the engine hosts every AE-free route
// with the same worker wiring. Convert and InferInto panic on such a set.
func PlanSetFor(net *nn.Sequential, batchCap int) (*PlanSet, error) {
	cls, err := nn.Compile(net, batchCap)
	if err != nil {
		return nil, fmt.Errorf("core: %s plan: %w", net.Name(), err)
	}
	return &PlanSet{cls: cls, cap: batchCap}, nil
}

// BatchCap returns the largest batch the set's plans accept.
func (ps *PlanSet) BatchCap() int { return ps.cap }

// EnableTracing attaches a span recorder to every plan in the set (see
// nn.Plan.EnableTracing). Call before the set's first execution.
func (ps *PlanSet) EnableTracing(rec *trace.Recorder) {
	if ps.ae != nil {
		ps.ae.EnableTracing(rec)
	}
	if ps.cls != nil {
		ps.cls.EnableTracing(rec)
	}
}

// SetTraceID stamps subsequent spans from the set's plans with id — the
// engine uses the current batch ID so plan-step spans correlate with the
// batch's lifecycle spans.
func (ps *PlanSet) SetTraceID(id uint64) {
	if ps.ae != nil {
		ps.ae.SetTraceID(id)
	}
	if ps.cls != nil {
		ps.cls.SetTraceID(id)
	}
}

// Convert runs the autoencoder plan, returning the converted images as a
// plan-owned view valid until the set's next execution.
func (ps *PlanSet) Convert(x *tensor.Tensor) *tensor.Tensor {
	return ps.ae.Execute(nil, x)
}

// Logits runs the set on a batch and returns the classifier's logits: a set
// with an AE plan converts first and hands back the converted images beside
// them, a classifier-only set classifies x as it is and returns nil there.
// Both results are plan-owned views, valid until the set's next execution.
func (ps *PlanSet) Logits(x *tensor.Tensor) (logits, converted *tensor.Tensor) {
	if ps.ae != nil {
		converted = ps.ae.Execute(nil, x)
		x = converted
	}
	return ps.cls.Execute(nil, x), converted
}

// InferInto classifies a batch through both plans into dst (length
// x.Shape[0]). Zero heap allocations once warm, and no goroutine started.
func (ps *PlanSet) InferInto(dst []int, x *tensor.Tensor) {
	ps.cls.Execute(nil, ps.ae.Execute(nil, x)).ArgMaxRows(dst)
}

// ClassifyDirectInto classifies a batch with the classifier plan alone into
// dst, the easy-route fast path.
func (ps *PlanSet) ClassifyDirectInto(dst []int, x *tensor.Tensor) {
	ps.cls.Execute(nil, x).ArgMaxRows(dst)
}

// planSetLocked returns a plan set able to take batches of n rows, growing
// (recompiling) the pipeline's private set on demand. It panics with the
// compiler's error when either network does not compile. p.mu must be held.
func (p *Pipeline) planSetLocked(n int) *PlanSet {
	if p.plansAE != p.AE || p.plansCls != p.Classifier {
		// The networks were swapped out from under the cache: recompile.
		p.plans = nil
		p.plansAE, p.plansCls = p.AE, p.Classifier
	}
	if p.plans != nil && n <= p.plans.cap {
		return p.plans
	}
	c := n
	if c < 16 {
		c = 16
	}
	ps, err := p.Plans(c)
	if err != nil {
		panic(err)
	}
	p.plans = ps
	return ps
}

// Convert runs only the autoencoder stage on a compiled plan, returning the
// transformed images as a caller-owned tensor.
func (p *Pipeline) Convert(x *tensor.Tensor) *tensor.Tensor {
	return nn.Run(p.AE.Net, x)
}

// Infer classifies a batch through the full pipeline.
func (p *Pipeline) Infer(x *tensor.Tensor) []int {
	preds := make([]int, x.Shape[0])
	p.InferInto(preds, x)
	return preds
}

// InferInto classifies a batch through the full pipeline (AE + classifier)
// into dst, which must have length x.Shape[0]. It executes the pipeline's
// compiled plans — zero heap allocations once the plan set has warmed to
// the batch capacity — serialized by the pipeline's mutex; concurrent
// servers should run per-worker sets from Plans instead.
func (p *Pipeline) InferInto(dst []int, x *tensor.Tensor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.planSetLocked(x.Shape[0]).InferInto(dst, x)
}

// ClassifyDirect classifies a batch with the lightweight classifier alone,
// skipping the converting autoencoder. This is the fast path for inputs
// already judged easy: §V observes that easy images classify correctly
// without conversion, so routing them around the AE saves its entire share
// of the pipeline latency (up to 25%, §IV-D).
func (p *Pipeline) ClassifyDirect(x *tensor.Tensor) []int {
	preds := make([]int, x.Shape[0])
	p.ClassifyDirectInto(preds, x)
	return preds
}

// ClassifyDirectInto is the allocation-free form of ClassifyDirect: it
// classifies into dst (length x.Shape[0]) on the pipeline's compiled
// classifier plan.
func (p *Pipeline) ClassifyDirectInto(dst []int, x *tensor.Tensor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.planSetLocked(x.Shape[0]).ClassifyDirectInto(dst, x)
}

// Accuracy returns pipeline classification accuracy over a dataset.
func (p *Pipeline) Accuracy(ds *dataset.Dataset) float64 {
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
		for j, pred := range p.Infer(x) {
			if pred == labels[j] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}

// Cost returns the per-image work of the full pipeline (AE + classifier).
func (p *Pipeline) Cost() device.Cost {
	return device.SequentialCost(p.AE.Net).Add(device.SequentialCost(p.Classifier))
}

// DirectCost returns the per-image work of the classifier-only path taken by
// ClassifyDirect.
func (p *Pipeline) DirectCost() device.Cost {
	return device.SequentialCost(p.Classifier)
}

// AECostShare returns the fraction of modelled pipeline latency spent in
// the autoencoder on the given device — the paper reports "up to 25%"
// (§IV-D).
func (p *Pipeline) AECostShare(prof device.Profile) float64 {
	ae := prof.MarginalLatency(device.SequentialCost(p.AE.Net))
	cls := prof.MarginalLatency(device.SequentialCost(p.Classifier))
	if ae+cls == 0 {
		return 0
	}
	return ae / (ae + cls)
}

// BuildConversionPairs constructs the converting autoencoder's training set
// per §III-A2: every image (easy and hard) is an input; its target is a
// randomly chosen easy image of the same class. res must come from
// BranchyNet inference over ds. Classes in which no image exited early fall
// back to their lowest-entropy images as targets (the closest available
// notion of "easiest").
func BuildConversionPairs(ds *dataset.Dataset, res models.InferenceResult, r *rng.RNG) (inputs, targets *tensor.Tensor, err error) {
	n := ds.Len()
	if n == 0 {
		return nil, nil, fmt.Errorf("core: empty dataset")
	}
	if len(res.Exited) != n || len(res.BranchEntropy) != n {
		return nil, nil, fmt.Errorf("core: inference result covers %d samples, dataset has %d", len(res.Exited), n)
	}
	// Per-class pools of easy targets.
	pools := make([][]int, dataset.NumClasses)
	for i, exited := range res.Exited {
		if exited {
			cls := ds.Labels[i]
			pools[cls] = append(pools[cls], i)
		}
	}
	// Fallback for classes with no early exits: the 10 lowest-entropy
	// samples of the class.
	for cls, pool := range pools {
		if len(pool) > 0 {
			continue
		}
		var classIdx []int
		for i, l := range ds.Labels {
			if l == cls {
				classIdx = append(classIdx, i)
			}
		}
		if len(classIdx) == 0 {
			return nil, nil, fmt.Errorf("core: class %d has no samples", cls)
		}
		// Partial selection of the 10 smallest entropies.
		for k := 0; k < len(classIdx) && k < 10; k++ {
			best := k
			for j := k + 1; j < len(classIdx); j++ {
				if res.BranchEntropy[classIdx[j]] < res.BranchEntropy[classIdx[best]] {
					best = j
				}
			}
			classIdx[k], classIdx[best] = classIdx[best], classIdx[k]
		}
		limit := len(classIdx)
		if limit > 10 {
			limit = 10
		}
		pools[cls] = classIdx[:limit]
	}
	inputs = tensor.New(n, dataset.Pixels)
	targets = tensor.New(n, dataset.Pixels)
	for i := 0; i < n; i++ {
		copy(inputs.Data[i*dataset.Pixels:(i+1)*dataset.Pixels], ds.Image(i))
		pool := pools[ds.Labels[i]]
		tgt := pool[r.Intn(len(pool))]
		copy(targets.Data[i*dataset.Pixels:(i+1)*dataset.Pixels], ds.Image(tgt))
	}
	return inputs, targets, nil
}

// NormalizeRowsToSum1 rescales each row to sum to one, the target transform
// required when the autoencoder uses the paper's Table I softmax output
// with MSE loss. Zero rows are left untouched.
func NormalizeRowsToSum1(t *tensor.Tensor) {
	n, w := t.Shape[0], t.Shape[1]
	for i := 0; i < n; i++ {
		row := t.Data[i*w : (i+1)*w]
		var sum float64
		for _, v := range row {
			sum += float64(v)
		}
		if sum <= 0 {
			continue
		}
		inv := float32(1 / sum)
		for j := range row {
			row[j] *= inv
		}
	}
}

// EnergyPerImage evaluates the paper's energy model (§IV-C) for one
// inference: Eq. 2 on the Pi, Eq. 1 on the cloud instance, and the
// measured-power path (CPU 17.7 W + duty-cycled GPU 79 W) on the K80,
// multiplied by the modelled latency.
func EnergyPerImage(prof device.Profile, latency, kernelTime float64) (float64, error) {
	if latency <= 0 {
		return 0, fmt.Errorf("core: non-positive latency %v", latency)
	}
	var watts float64
	var err error
	switch {
	case prof.HasGPU:
		duty := kernelTime / latency
		if duty > 1 {
			duty = 1
		}
		watts, err = power.K80Power(duty)
	case prof.Name == "RaspberryPi4":
		watts, err = power.PiPower(prof.Utilization)
	default:
		watts, err = power.GCIPower(prof.Utilization)
	}
	if err != nil {
		return 0, err
	}
	return power.Energy(watts, latency)
}

// PriceImage is the one path from a network's per-image work to what it
// costs on a device: the modelled latency in seconds and, through
// EnergyPerImage, the modelled energy in joules. Every energy figure the
// process reports for a route or a model is this function of a device.Cost.
func PriceImage(prof device.Profile, c device.Cost) (seconds, joules float64, err error) {
	seconds = prof.Latency(c)
	joules, err = EnergyPerImage(prof, seconds, prof.KernelTime(c))
	return seconds, joules, err
}

// BranchyLatency returns BranchyNet's expected per-image latency: the stem
// and branch run for every sample, and samples that fail the entropy test
// additionally pay a full main-network pass (stem + trunk).
//
// The main-network re-entry follows the paper's measurements: its reported
// latencies imply a non-exited marginal cost at least as large as a full
// LeNet pass (e.g. FMNIST: (7.248−light)/0.231 ≈ 25 ms on the Pi), which
// matches the original BranchyNet implementation where the main branch is
// the complete network evaluated from the input rather than from cached
// stem activations.
func BranchyLatency(prof device.Profile, b *models.BranchyNet, exitRate float64) float64 {
	lightPath := device.SequentialCost(b.Stem).Add(device.SequentialCost(b.Branch))
	mainNet := device.SequentialCost(b.Stem).Add(device.SequentialCost(b.Trunk))
	return prof.Latency(lightPath) + (1-exitRate)*prof.MarginalLatency(mainNet)
}

// BranchyKernelTime returns the expected kernel-only time for the same
// path, used for GPU duty estimation.
func BranchyKernelTime(prof device.Profile, b *models.BranchyNet, exitRate float64) float64 {
	lightPath := device.SequentialCost(b.Stem).Add(device.SequentialCost(b.Branch))
	mainNet := device.SequentialCost(b.Stem).Add(device.SequentialCost(b.Trunk))
	return prof.KernelTime(lightPath) + (1-exitRate)*prof.KernelTime(mainNet)
}

// Speedup returns baseline/lat, guarding against division by zero.
func Speedup(baseline, lat float64) float64 {
	if lat <= 0 {
		return math.Inf(1)
	}
	return baseline / lat
}
