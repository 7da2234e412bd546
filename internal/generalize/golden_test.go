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
// TestTrainingGoldenBits's run, per GEMM kernel. avx512-8x16 and avx2-8x8
// train the same autoencoder. LeNet, BranchyNet and the latent head differ:
// the blocked GEMM takes a product only when it is at least one tile wide
// (useBlocked), so a 10-class output, or conv3's batch of 8 to 15 one-column
// samples (an epoch's last, short minibatch), runs blocked under the 8-wide
// tile and on the plain loop under the 16-wide one. generic-8x8 rounds
// every multiply before it adds, and trains other weights again.
var goldenBits = map[string]map[string]string{
	"avx512-8x16": {
		"lenet":       "084eaca521ac577009e0f7152a1841c76f79205a35d92ebee11d9223f2f84dba",
		"branchy":     "e09505379c5014d691b637a2573118a8de201cd1a5230893e84af2b97aed3365",
		"ae":          "19e99ea6bdd1b13e4014bad5534764115e3e0b0b09a282d464750af0e79ebb33",
		"latent-head": "0ff6ceb0c5e13152c6eb11c6f69169b17963867af5424fcabad6a67131c488d0",
	},
	"avx2-8x8": {
		"lenet":       "8811b3af7b3daceaf3a333bd577d8b309ff2d4bd7d7a5102ef3ca4b208d28eba",
		"branchy":     "cc5215fd60c4b5247156eb98b84f8c11d5cec06498b20bebc193c95a7d7dfd7b",
		"ae":          "19e99ea6bdd1b13e4014bad5534764115e3e0b0b09a282d464750af0e79ebb33",
		"latent-head": "133cd7e68b4dfb3b111043ed897a2247947f97a0873f64a466ea4b3032b93a49",
	},
	"generic-8x8": {
		"lenet":       "2e3c88f103a23748e03966a5af4cecb04464dce0a9a660efbd37f83f2588907a",
		"branchy":     "b761fc3e8ae403adf9ed74380c6b8e4a4f88e299a27dc42892ad4f5055ce6145",
		"ae":          "bbbd222e69511db489ba98822a5355ce151973db5d626459c5af272fb249a7f3",
		"latent-head": "3012b98a17845e975801c36982cbf55b4226300cfd81d0334e0b84d858a7afde",
	},
}

// TestTrainingGoldenBits trains a small system through core.TrainSystem —
// LeNet, BranchyNet's joint training, exit-threshold tuning, the stage-3
// easy/hard labels and the autoencoder — and a latent head on its encoder,
// and holds each trained network to pinned hashes. A change that claims to
// keep the trained bits keeps these; one that moves them says so and pins
// the new hashes. It is the quick first check before retraining the
// benchmark's 1 000-image fixture.
func TestTrainingGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go compiler fuses scalar a*b+c into one FMA on arm64, so the
		// scalar loops round differently there.
		t.Skip("hashes are pinned for amd64")
	}
	kernel := tensor.GEMMKernelName()
	want, ok := goldenBits[kernel]
	if !ok {
		t.Skipf("no hashes pinned for kernel %s", kernel)
	}
	std, err := dataset.LoadStandard(dataset.FashionMNIST, 200, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
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
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s under %s: sha256 %s, want %s", name, kernel, got, want[name])
		}
	}
}
