// Package dataset synthesizes the three image-classification datasets the
// paper evaluates on (MNIST, Fashion-MNIST, Kuzushiji-MNIST) as procedural
// 28×28 grayscale glyph datasets with a controllable fraction of "hard"
// samples.
//
// The real datasets cannot be downloaded in this offline environment; the
// substitution (README.md, "Reproduction substitutions") preserves the
// properties CBNet depends on: 10 balanced classes learnable by a small CNN,
// and a dataset-dependent mixture of easy (clean, canonical) and hard
// (blurred, noisy, occluded, deformed) samples. Hard fractions follow the
// paper's measured early-exit statistics: ≈5% for MNIST, ≈23% for FMNIST and
// ≈37% for KMNIST.
package dataset

import (
	"fmt"

	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// DefaultHardFraction returns the paper-calibrated fraction of hard samples
// for a family (§III-A: 5% of MNIST, 23% of FMNIST; §IV-D: 63.08% of KMNIST
// took the early exit, i.e. ≈37% hard).
func DefaultHardFraction(f Family) float64 {
	switch f {
	case MNIST:
		return 0.05
	case FashionMNIST:
		return 0.23
	case KMNIST:
		return 0.37
	default:
		return 0
	}
}

// Dataset is a labelled set of flattened 28×28 images.
type Dataset struct {
	Family Family
	// Images has shape (N, 784), pixels in [0, 1].
	Images *tensor.Tensor
	// Labels holds the class of each row.
	Labels []int
	// Hard records whether the generator applied the hardness pipeline to
	// each sample. The CBNet training flow derives its own easy/hard labels
	// from BranchyNet exits (as in the paper); this flag is generator ground
	// truth used for calibration and stratified subsetting.
	Hard []bool
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// HardFraction returns the fraction of generator-hard samples.
func (d *Dataset) HardFraction() float64 {
	if d.Len() == 0 {
		return 0
	}
	n := 0
	for _, h := range d.Hard {
		if h {
			n++
		}
	}
	return float64(n) / float64(d.Len())
}

// Image returns row i as a flat []float32 view.
func (d *Dataset) Image(i int) []float32 {
	return d.Images.Data[i*Pixels : (i+1)*Pixels]
}

// Config controls dataset generation.
type Config struct {
	Family Family
	N      int
	// HardFraction in [0,1]; negative selects the family default.
	HardFraction float64
	Seed         uint64
}

// Generate synthesizes a dataset. Classes are balanced (round-robin) and the
// hard flags are assigned uniformly at random at the configured rate, then
// the whole set is shuffled.
func Generate(cfg Config) (*Dataset, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dataset: non-positive size %d", cfg.N)
	}
	hf := cfg.HardFraction
	if hf < 0 {
		hf = DefaultHardFraction(cfg.Family)
	}
	if hf > 1 {
		return nil, fmt.Errorf("dataset: hard fraction %v > 1", hf)
	}
	d := &Dataset{
		Family: cfg.Family,
		Images: tensor.New(cfg.N, Pixels),
		Labels: make([]int, cfg.N),
		Hard:   make([]bool, cfg.N),
	}
	r := rng.New(cfg.Seed ^ 0x5EED0000 ^ uint64(cfg.Family)<<32)
	// Deterministic hard-count: exactly round(hf*N) hard samples, spread
	// round-robin over classes so per-class hardness is balanced too.
	nHard := int(hf*float64(cfg.N) + 0.5)
	for i := 0; i < cfg.N; i++ {
		d.Labels[i] = i % NumClasses
		d.Hard[i] = i < nHard
	}
	// Shuffle labels and hard flags together so batches are mixed.
	r.Shuffle(cfg.N, func(i, j int) {
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
		d.Hard[i], d.Hard[j] = d.Hard[j], d.Hard[i]
	})
	for i := 0; i < cfg.N; i++ {
		img := RenderSample(cfg.Family, d.Labels[i], d.Hard[i], r)
		copy(d.Image(i), img)
	}
	return d, nil
}

// MustGenerate is Generate that panics on error, for known-good configs.
func MustGenerate(cfg Config) *Dataset {
	d, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// RenderSample produces one image for (family, class): a jittered canonical
// glyph, pushed through the hardness pipeline when hard is set.
func RenderSample(family Family, class int, hard bool, r *rng.RNG) []float32 {
	thickness := 1.6 + 0.5*r.Float64()
	img := RenderGlyph(family, class, thickness)

	if !hard {
		// Easy samples: slight pose jitter and sensor noise only — these
		// are the "prototypical" inputs early exits classify confidently.
		img = Affine(img,
			(r.Float64()-0.5)*0.14, // ±4°
			0.95+0.1*r.Float64(),   // scale 0.95–1.05
			(r.Float64()-0.5)*2.4,  // ±1.2 px
			(r.Float64()-0.5)*2.4)
		AddNoise(img, r, 0.02)
		return img
	}

	// Hard samples: pose deformation plus stacked photometric degradations,
	// mirroring the paper's description of hard inputs ("low-resolution or
	// blurry images to complex images dissimilar to their class"). The mix
	// is calibrated to two targets at once: a trained early-exit branch
	// should rarely reach exit confidence on these (reproducing the paper's
	// per-dataset exit rates), yet the class must remain recoverable by a
	// deep network or the converting autoencoder. Blur, noise and contrast
	// loss confuse shallow branches while preserving class evidence, so
	// they dominate over the class-destroying geometric terms.
	//
	// Severity is per-family: the solid digit strokes and filled clothing
	// silhouettes of MNIST/FMNIST survive photometric damage far better
	// than KMNIST's thin cursive strokes, so they take a stronger dose to
	// end up equally confusing — just as the real datasets differ in how
	// degraded their hard samples look (Fig. 1).
	p := hardSeverity[family]

	// Class ambiguity: real hard samples are not merely degraded, they are
	// "complex images that are dissimilar to other images belonging to the
	// same class" (§I) — a 4 that looks like a 9, a shirt that looks like a
	// coat. Blending in a minority share of a sibling class's glyph makes
	// hardness irreducible for shallow branch classifiers at any training
	// scale, while the majority share keeps the true class recoverable by
	// deeper networks and the converting autoencoder.
	if p.ambiguity > 0 {
		sibling := (class + 1 + r.Intn(NumClasses-1)) % NumClasses
		alpha := float32(p.ambiguity * (0.6 + 0.4*r.Float64()))
		sibImg := RenderGlyph(family, sibling, 1.6+0.5*r.Float64())
		for i := range img {
			img[i] = (1-alpha)*img[i] + alpha*sibImg[i]
		}
	}
	img = Affine(img,
		(r.Float64()-0.5)*2*p.rot,
		p.scaleLo+(p.scaleHi-p.scaleLo)*r.Float64(),
		(r.Float64()-0.5)*2*p.shift,
		(r.Float64()-0.5)*2*p.shift)
	img = GaussianBlur(img, p.blurLo+(p.blurHi-p.blurLo)*r.Float64())
	AddNoise(img, r, p.noiseLo+(p.noiseHi-p.noiseLo)*r.Float64())
	if r.Float64() < p.occludeP {
		Occlude(img, r, p.occludeMin+r.Intn(p.occludeMax-p.occludeMin+1))
	}
	if r.Float64() < p.contrastP {
		ScaleContrast(img, 0.42+0.3*r.Float64())
	}
	Clamp01(img)
	return img
}

// severity holds the per-family hard-sample degradation parameters.
type severity struct {
	rot, scaleLo, scaleHi, shift float64
	blurLo, blurHi               float64
	noiseLo, noiseHi             float64
	occludeP                     float64
	occludeMin, occludeMax       int
	contrastP                    float64
	// ambiguity is the peak sibling-class blend weight (0 disables).
	ambiguity float64
}

var hardSeverity = map[Family]severity{
	MNIST: {
		rot: 0.45, scaleLo: 0.62, scaleHi: 1.22, shift: 3,
		blurLo: 1.2, blurHi: 2.2, noiseLo: 0.18, noiseHi: 0.33,
		occludeP: 0.55, occludeMin: 6, occludeMax: 10, contrastP: 0.65,
		ambiguity: 0.38,
	},
	FashionMNIST: {
		rot: 0.45, scaleLo: 0.62, scaleHi: 1.22, shift: 3,
		blurLo: 1.2, blurHi: 2.2, noiseLo: 0.18, noiseHi: 0.33,
		occludeP: 0.55, occludeMin: 6, occludeMax: 10, contrastP: 0.65,
		ambiguity: 0.38,
	},
	KMNIST: {
		rot: 0.28, scaleLo: 0.72, scaleHi: 1.2, shift: 2.5,
		blurLo: 1.0, blurHi: 2.0, noiseLo: 0.15, noiseHi: 0.3,
		occludeP: 0.4, occludeMin: 5, occludeMax: 7, contrastP: 0.6,
		ambiguity: 0.24,
	},
}

// Subset returns a stratified subset containing a `ratio` fraction of the
// dataset, preserving the hard/easy proportion — the protocol of the
// paper's scalability analysis ("we ensured that the proportion of hard
// test images used in each experiment remained roughly the same").
func (d *Dataset) Subset(ratio float64, r *rng.RNG) (*Dataset, error) {
	if ratio <= 0 || ratio > 1 {
		return nil, fmt.Errorf("dataset: subset ratio %v outside (0,1]", ratio)
	}
	var hardIdx, easyIdx []int
	for i, h := range d.Hard {
		if h {
			hardIdx = append(hardIdx, i)
		} else {
			easyIdx = append(easyIdx, i)
		}
	}
	r.Shuffle(len(hardIdx), func(i, j int) { hardIdx[i], hardIdx[j] = hardIdx[j], hardIdx[i] })
	r.Shuffle(len(easyIdx), func(i, j int) { easyIdx[i], easyIdx[j] = easyIdx[j], easyIdx[i] })
	nHard := int(ratio*float64(len(hardIdx)) + 0.5)
	nEasy := int(ratio*float64(len(easyIdx)) + 0.5)
	if nHard+nEasy == 0 {
		return nil, fmt.Errorf("dataset: subset ratio %v selects zero samples", ratio)
	}
	idx := append(append([]int(nil), hardIdx[:nHard]...), easyIdx[:nEasy]...)
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return d.Select(idx), nil
}

// Select returns a new dataset containing the given rows (copied).
func (d *Dataset) Select(idx []int) *Dataset {
	out := &Dataset{
		Family: d.Family,
		Images: tensor.New(len(idx), Pixels),
		Labels: make([]int, len(idx)),
		Hard:   make([]bool, len(idx)),
	}
	for o, i := range idx {
		copy(out.Image(o), d.Image(i))
		out.Labels[o] = d.Labels[i]
		out.Hard[o] = d.Hard[i]
	}
	return out
}

// Batch extracts rows [i0, i1) as a (batch, 784) tensor view plus labels.
// The tensor shares storage with the dataset; callers must not mutate it.
func (d *Dataset) Batch(i0, i1 int) (*tensor.Tensor, []int) {
	if i0 < 0 || i1 > d.Len() || i0 >= i1 {
		panic(fmt.Sprintf("dataset: bad batch range [%d,%d) of %d", i0, i1, d.Len()))
	}
	x := tensor.FromSlice(d.Images.Data[i0*Pixels:i1*Pixels], i1-i0, Pixels)
	return x, d.Labels[i0:i1]
}

// Shuffled returns a copy of the dataset in a new random order.
func (d *Dataset) Shuffled(r *rng.RNG) *Dataset {
	idx := r.Perm(d.Len())
	return d.Select(idx)
}

// ClassIndices returns, for each class, the row indices with that label.
func (d *Dataset) ClassIndices() [][]int {
	out := make([][]int, NumClasses)
	for i, lbl := range d.Labels {
		out[lbl] = append(out[lbl], i)
	}
	return out
}

// Standard holds the paired train/test sets for one family.
type Standard struct {
	Train, Test *Dataset
}

// LoadStandard generates the train/test pair for a family at the
// paper-calibrated hard fraction. trainN/testN of 0 select the default
// reproduction sizes (6000/1000 — scaled from the papers' 60000/10000 to
// keep pure-Go training tractable; the ratio and hard fractions match).
func LoadStandard(f Family, trainN, testN int, seed uint64) (Standard, error) {
	if trainN == 0 {
		trainN = 6000
	}
	if testN == 0 {
		testN = 1000
	}
	train, err := Generate(Config{Family: f, N: trainN, HardFraction: -1, Seed: seed})
	if err != nil {
		return Standard{}, err
	}
	test, err := Generate(Config{Family: f, N: testN, HardFraction: -1, Seed: seed + 1})
	if err != nil {
		return Standard{}, err
	}
	return Standard{Train: train, Test: test}, nil
}
