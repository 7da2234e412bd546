// Command cbnet-infer loads checkpoints written by cbnet-train and runs the
// CBNet pipeline on freshly generated test images, printing the original
// and converted images side by side with the prediction.
//
// Usage:
//
//	cbnet-infer -ckpt ./ckpt -dataset fmnist -n 3 -hard
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

func main() {
	var (
		ckpt = flag.String("ckpt", "ckpt", "checkpoint directory from cbnet-train")
		name = flag.String("dataset", "mnist", "dataset family: mnist, fmnist, kmnist")
		n    = flag.Int("n", 3, "number of images to classify")
		hard = flag.Bool("hard", true, "generate hard images (the interesting case)")
		seed = flag.Uint64("seed", 1234, "image generation seed")
	)
	flag.Parse()
	if err := run(*ckpt, *name, *n, *hard, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "cbnet-infer:", err)
		os.Exit(1)
	}
}

func run(ckpt, name string, n int, hard bool, seed uint64) error {
	family, err := dataset.FamilyByName(name)
	if err != nil {
		return err
	}

	// Rebuild the architectures, then load the trained parameters.
	r := rng.New(1)
	branchy := models.NewBranchyLeNet(r, models.DefaultThreshold(family))
	if err := models.LoadBranchy(filepath.Join(ckpt, "branchy.ck"), branchy); err != nil {
		return fmt.Errorf("loading branchy.ck: %w", err)
	}
	ae := models.NewTableIAE(family, r)
	if err := models.LoadFile(filepath.Join(ckpt, "ae.ck"), ae.Net); err != nil {
		return fmt.Errorf("loading ae.ck: %w", err)
	}
	plans, err := (&core.Pipeline{AE: ae, Classifier: models.ExtractLightweight(branchy)}).Plans(1)
	if err != nil {
		return err
	}

	gen := rng.New(seed)
	for i := 0; i < n; i++ {
		class := gen.Intn(dataset.NumClasses)
		img := dataset.RenderSample(family, class, hard, gen)
		x := tensor.FromSlice(append([]float32(nil), img...), 1, dataset.Pixels)
		logits, converted := plans.Logits(x)
		pred := logits.ArgMax()
		kind := "easy"
		if hard {
			kind = "hard"
		}
		fmt.Printf("sample %d: true class %d (%s) → CBNet predicts %d\n", i+1, class, kind, pred)
		fmt.Printf("%-28s    %s\n", "input", "converted (easy)")
		fmt.Println(dataset.RenderASCIIPair(img, converted.Data, "    "))
	}
	return nil
}
