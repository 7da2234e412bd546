//go:build linux

package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"image"
	"image/color"
	"image/png"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/engine"
	"cbnet/internal/generalize"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// The fixture (weights and pool contents) is pinned to one seed so that
// accuracy, energy and route shares are the same number on every run; the
// -seed argument orders the pool and draws the arrival schedule.
const (
	fixtureSeed = 1
	poolSize    = 2048
	family      = dataset.FashionMNIST
)

// ensureCheckpoint returns the directory holding branchy.ck and ae.ck for the
// fixture trained on trainN images, training them once under
// benchmark/.cache/ and reusing them after. The directory is named after the
// seed, the size and a hash of the training configuration, so a change to
// core.DefaultSystemConfig trains afresh; a change to the training code does
// not, and wants the cache removed. trainS is the wall time the training took
// when it ran.
func ensureCheckpoint(root string, trainN int) (dir string, trainS float64, err error) {
	cfg := core.DefaultSystemConfig(family)
	cfg.Seed = fixtureSeed
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v", cfg)
	dir = filepath.Join(root, "benchmark", ".cache", fmt.Sprintf("fmnist-seed%d-n%d-cfg%08x", fixtureSeed, trainN, h.Sum32()))
	if b, err := os.ReadFile(filepath.Join(dir, "train_s")); err == nil {
		if s, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64); err == nil {
			return dir, s, nil
		}
	}
	t0 := time.Now()
	std, err := dataset.LoadStandard(family, trainN, 10, fixtureSeed)
	if err != nil {
		return "", 0, fmt.Errorf("fixture dataset: %w", err)
	}
	sys, err := core.TrainSystem(std, cfg)
	if err != nil {
		return "", 0, fmt.Errorf("fixture training: %w", err)
	}
	trainS = time.Since(t0).Seconds()

	// Write beside the final location and rename, so a concurrent or
	// interrupted run never leaves a half-written checkpoint behind.
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", 0, err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), "train-*")
	if err != nil {
		return "", 0, err
	}
	defer os.RemoveAll(tmp)
	if err := models.SaveBranchy(filepath.Join(tmp, "branchy.ck"), sys.Branchy); err != nil {
		return "", 0, err
	}
	if err := models.SaveFile(filepath.Join(tmp, "ae.ck"), sys.CBNet.AE.Net); err != nil {
		return "", 0, err
	}
	meta := strconv.FormatFloat(trainS, 'f', 3, 64) + "\n"
	if err := os.WriteFile(filepath.Join(tmp, "train_s"), []byte(meta), 0o644); err != nil {
		return "", 0, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, statErr := os.Stat(filepath.Join(dir, "train_s")); statErr != nil {
			return "", 0, err
		}
		// Another run finished the same training first; its files serve.
	}
	return dir, trainS, nil
}

// loadPipeline builds the serving pipeline from checkpoint files the way
// cbnet-serve does. A load error is returned as is: untrained weights are
// never a substitute.
func loadPipeline(ckpt string) (*core.Pipeline, error) {
	r := rng.New(1)
	branchy := models.NewBranchyLeNet(r, models.DefaultThreshold(family))
	ae := models.NewTableIAE(family, r)
	if err := models.LoadBranchy(filepath.Join(ckpt, "branchy.ck"), branchy); err != nil {
		return nil, fmt.Errorf("loading branchy.ck: %w", err)
	}
	if err := models.LoadFile(filepath.Join(ckpt, "ae.ck"), ae.Net); err != nil {
		return nil, fmt.Errorf("loading ae.ck: %w", err)
	}
	return &core.Pipeline{AE: ae, Classifier: models.ExtractLightweight(branchy)}, nil
}

func checkpointBytes(ckpt string) (int64, error) {
	var n int64
	for _, name := range []string{"branchy.ck", "ae.ck"} {
		fi, err := os.Stat(filepath.Join(ckpt, name))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// input is one pool image with everything a workload needs about it, all
// computed before the clock starts.
type input struct {
	pixels []float32
	label  int
	hard   bool   // scores at or above the routing threshold
	body   []byte // request body: JSON for easy inputs, PNG for hard ones
	// oracle is the class the reference path gives for these pixels on each
	// route: [0] the easy route's ClassifyDirect, [1] the hard route's Infer.
	oracle [2]int
}

// pools holds the two input pools. Easy inputs are clean renders scoring
// below engine.DefaultHardnessThreshold; hard inputs are degraded renders
// scoring at or above it, after the 8-bit quantisation a PNG imposes, so the
// pixels the in-process workloads see are the pixels the server decodes.
type pools struct {
	easy, hard []input
	// hardRecall is the share of degraded renders that scored hard.
	hardRecall float64
}

// buildPools renders the pools a workload draws from ("easy", "hard" or
// "mixed" for both); each pool has its own stream, so its contents do not
// depend on which others are built.
func buildPools(pipe *core.Pipeline, which string) (*pools, error) {
	p := &pools{}
	r := rng.New(fixtureSeed ^ 0xEA5E)
	for i := 0; which != "hard" && len(p.easy) < poolSize; i++ {
		if i > 20*poolSize {
			return nil, fmt.Errorf("easy pool: only %d of %d clean renders score below the threshold", len(p.easy), i)
		}
		class := i % dataset.NumClasses
		px := dataset.RenderSample(family, class, false, r)
		if generalize.HardnessScore(px) >= engine.DefaultHardnessThreshold {
			continue
		}
		p.easy = append(p.easy, input{pixels: px, label: class, body: encodeJSON(px)})
	}
	r = rng.New(fixtureSeed ^ 0x4A2D)
	rendered := 0
	for ; which != "easy" && len(p.hard) < poolSize; rendered++ {
		if rendered > 20*poolSize {
			return nil, fmt.Errorf("hard pool: only %d of %d degraded renders score at the threshold", len(p.hard), rendered)
		}
		class := rendered % dataset.NumClasses
		body, px, err := encodePNG(dataset.RenderSample(family, class, true, r))
		if err != nil {
			return nil, err
		}
		if generalize.HardnessScore(px) < engine.DefaultHardnessThreshold {
			continue
		}
		p.hard = append(p.hard, input{pixels: px, label: class, hard: true, body: body})
	}
	if rendered > 0 {
		p.hardRecall = float64(poolSize) / float64(rendered)
	}

	// The oracle is the pipeline's own single-threaded reference path, kept
	// for both routes so that an answer is checked against the route it
	// reports even when that is not the route its score should select.
	for _, pool := range [][]input{p.easy, p.hard} {
		for i := 0; i < len(pool); i += batchRows {
			x := stack(pool[i : i+batchRows])
			direct, full := pipe.ClassifyDirect(x), pipe.Infer(x)
			for j := range direct {
				pool[i+j].oracle = [2]int{direct[j], full[j]}
			}
		}
	}
	return p, nil
}

// batchRows is the batch size of the offline workload and of every b32
// per-layer measurement: the engine's default flush size, where the blocked
// GEMM is used.
const batchRows = 32

// stack copies the inputs' pixels into one (n × 784) tensor.
func stack(in []input) *tensor.Tensor {
	x := tensor.New(len(in), dataset.Pixels)
	for i := range in {
		copy(x.Data[i*dataset.Pixels:], in[i].pixels)
	}
	return x
}

// encodeJSON writes {"pixels":[...]} with the shortest digits that read back
// as the same float32, so the server scores exactly the pool's pixels.
func encodeJSON(px []float32) []byte {
	b := make([]byte, 0, 12*len(px))
	b = append(b, `{"pixels":[`...)
	for i, v := range px {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// encodePNG encodes px as an 8-bit grayscale PNG and returns it with the
// pixels the server will read out of it (its BT.601 luma over 16-bit
// channels, repeated here because serve keeps that conversion private).
func encodePNG(px []float32) ([]byte, []float32, error) {
	img := image.NewGray(image.Rect(0, 0, dataset.Side, dataset.Side))
	for i, v := range px {
		img.Pix[i] = uint8(v*255 + 0.5)
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, nil, fmt.Errorf("encoding png: %w", err)
	}
	out := make([]float32, dataset.Pixels)
	for i, g := range img.Pix {
		r, gr, b, _ := color.Gray{Y: g}.RGBA()
		out[i] = float32((0.299*float64(r) + 0.587*float64(gr) + 0.114*float64(b)) / 65535)
	}
	return buf.Bytes(), out, nil
}

// sequence returns the pool index each of n images uses: passes over the
// pool, each in a fresh order drawn from r, so that with n a whole number of
// passes every input is used equally often and the count-type metrics do not
// depend on the seed.
func sequence(r *rng.RNG, n, poolLen int) []int32 {
	seq := make([]int32, 0, n+poolLen)
	for len(seq) < n {
		for _, i := range r.Perm(poolLen) {
			seq = append(seq, int32(i))
		}
	}
	return seq[:n]
}
