package generalize

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cbnet/internal/core"
	"cbnet/internal/dataset"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

// goldenBits pins the sha256 of each network's checkpoint bytes after
// TestTrainingGoldenBits's run, per kind of GEMM kernel. Every product of
// two rows or more under an FMA kernel takes the blocked micro-kernel and
// every one-row product the gemv in the same order, whatever its width, so
// avx512-8x16 and avx2-8x8 train the same bits. Without FMA every product
// takes gemmNaive, which rounds every multiply before it adds, and
// generic-8x8 and generic-8x16 train other bits, the same for both.
var goldenBits = map[string]map[string]string{
	"fma": {
		"lenet":       "bc017bb5ee9304a3edcf236178a0b6e58b11b3224f8a3d8cb90033ffab81b8f3",
		"branchy":     "7d95d7b6fa8b2db55ff7beb1f7864895683be8646ed61b827b74b45468139dd8",
		"ae":          "19e99ea6bdd1b13e4014bad5534764115e3e0b0b09a282d464750af0e79ebb33",
		"latent-head": "89b3ef3f7bd1cc44c249c257d67ef5559e14d4934fffd10dec51ccbb8e0be056",
	},
	"generic": {
		"lenet":       "2e3c88f103a23748e03966a5af4cecb04464dce0a9a660efbd37f83f2588907a",
		"branchy":     "b761fc3e8ae403adf9ed74380c6b8e4a4f88e299a27dc42892ad4f5055ce6145",
		"ae":          "bbbd222e69511db489ba98822a5355ce151973db5d626459c5af272fb249a7f3",
		"latent-head": "3012b98a17845e975801c36982cbf55b4226300cfd81d0334e0b84d858a7afde",
	},
}

// TestTrainingGoldenBits trains a small system through core.TrainSystem —
// LeNet, BranchyNet's joint training, exit-threshold tuning, the stage-3
// easy/hard labels and the autoencoder — and a latent head on its encoder,
// and holds each trained network to pinned hashes, once under every kernel
// the host runs, each with the dispatch it would get at init (the blocked
// path for an FMA kernel, gemmNaive for a generic one). A change that claims to
// keep the trained bits keeps these; one that moves them says so and pins
// the new hashes. It is the quick first check before retraining the
// benchmark's 1 000-image fixture.
func TestTrainingGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler fuses scalar a*b+c into one FMA on arm64, so the
		// scalar loops round differently there.
		t.Skip("hashes are pinned for amd64")
	}
	defer tensor.SetBlockedKernelForTest(tensor.SetBlockedKernelForTest(tensor.BlockedKernelEnabled()))
	defer tensor.SetGEMMKernelForTest(tensor.GEMMKernelName())
	std, err := dataset.LoadStandard(dataset.FashionMNIST, 200, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range tensor.GEMMKernels() {
		if !k.Available {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			tensor.SetGEMMKernelForTest(k.Name)
			tensor.SetBlockedKernelForTest(k.FMA)
			want := goldenBits["generic"]
			if k.FMA {
				want = goldenBits["fma"]
			}
			for name, sum := range trainGolden(t, std) {
				if sum != want[name] {
					t.Errorf("%s under %s: sha256 %s, want %s", name, k.Name, sum, want[name])
				}
			}
		})
	}
}

// trainGolden runs TestTrainingGoldenBits's training under the active
// kernel and returns each network's checkpoint sha256.
func trainGolden(t *testing.T, std dataset.Standard) map[string]string {
	t.Helper()
	cfg := core.DefaultSystemConfig(dataset.FashionMNIST)
	cfg.LeNetEpochs, cfg.BranchyEpochs, cfg.AEEpochs = 1, 1, 1
	cfg.Seed = 1
	sys, err := core.TrainSystem(std, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := BuildEncoderPipeline(sys.CBNet.AE, std.Train, train.Config{Epochs: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := sys.Branchy
	sums := map[string]string{}
	for name, nets := range map[string][]*nn.Sequential{
		"lenet":       {sys.LeNet},
		"branchy":     {b.Stem, b.Branch, b.Trunk},
		"ae":          {sys.CBNet.AE.Net},
		"latent-head": {ep.Head},
	} {
		var buf bytes.Buffer
		if err := models.SaveParams(&buf, nets...); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		sums[name] = hex.EncodeToString(sum[:])
	}
	return sums
}
