// Package models builds the paper's networks: the LeNet baseline, the
// BranchyNet-LeNet early-exit network and its exit cascade
// (CompileCascade), the per-dataset converting autoencoders of Table I, and
// the lightweight DNN extracted from the early-exit branch. It also
// provides parameter checkpointing.
package models

import (
	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
)

// Architecture constants shared by LeNet and BranchyNet-LeNet. The paper's
// BranchyNet "consists of three convolutional layers and two fully-connected
// layers in the main network" with "one early-exit branch consisting of one
// convolutional layer and one fully-connected layer after the first
// convolutional layer" (§IV-B1); this is the classic B-LeNet layout.
//
// Channel widths are chosen so the branch path (conv1 + branch) costs ≈10%
// of the full network's multiply-accumulates, reproducing the compute ratio
// implied by the paper's measured latencies (LeNet 12.7 ms vs lightweight
// ≈1.4 ms on the Raspberry Pi 4, Table II and §IV-D).
const (
	conv1Out      = 3   // conv1: 1→3 channels, 5×5, pad 2, 28×28
	conv2Out      = 48  // conv2: 3→48, 5×5 → 10×10 after pooling
	conv3Out      = 256 // conv3: 48→256, 5×5 → 1×1 (LeNet-5's C5 analogue)
	fc1Out        = 84
	branchConvOut = 3 // branch conv: 3→3, 3×3 on the pooled stem output
)

// NewLeNet builds the baseline LeNet classifier:
//
//	conv(1→3,5×5,pad2) relu pool2 | conv(3→48,5×5) relu pool2 |
//	conv(48→256,5×5) relu | fc(256→84) relu | fc(84→10)
//
// The final layer emits raw logits; softmax is fused into the loss.
func NewLeNet(r *rng.RNG) *nn.Sequential {
	return nn.NewSequential("lenet",
		nn.MustConv2D("conv1", 1, 28, 28, conv1Out, 5, 5, 1, 2, r),
		nn.NewReLU("relu1"),
		nn.MustMaxPool2D("pool1", conv1Out, 28, 28, 2, 2),
		nn.MustConv2D("conv2", conv1Out, 14, 14, conv2Out, 5, 5, 1, 0, r),
		nn.NewReLU("relu2"),
		nn.MustMaxPool2D("pool2", conv2Out, 10, 10, 2, 2),
		nn.MustConv2D("conv3", conv2Out, 5, 5, conv3Out, 5, 5, 1, 0, r),
		nn.NewReLU("relu3"),
		nn.NewDense("fc1", conv3Out, fc1Out, r),
		nn.NewReLU("relu4"),
		nn.NewDense("fc2", fc1Out, dataset.NumClasses, r),
	)
}

// newStem builds the shared first stage (conv1 + relu + pool), the part of
// the network computed for every input in both BranchyNet paths.
func newStem(r *rng.RNG) *nn.Sequential {
	return nn.NewSequential("stem",
		nn.MustConv2D("conv1", 1, 28, 28, conv1Out, 5, 5, 1, 2, r),
		nn.NewReLU("relu1"),
		nn.MustMaxPool2D("pool1", conv1Out, 28, 28, 2, 2),
	)
}

// newBranch builds the early-exit side branch operating on the stem output
// (3×14×14): one 3×3 convolution and one fully-connected classifier.
func newBranch(r *rng.RNG) *nn.Sequential {
	return nn.NewSequential("branch",
		nn.MustConv2D("bconv", conv1Out, 14, 14, branchConvOut, 3, 3, 1, 0, r),
		nn.NewReLU("brelu"),
		nn.MustMaxPool2D("bpool", branchConvOut, 12, 12, 2, 2),
		nn.NewDense("bfc", branchConvOut*6*6, dataset.NumClasses, r),
	)
}

// newTrunk builds the remainder of the main network after the stem
// (conv2 … fc2).
func newTrunk(r *rng.RNG) *nn.Sequential {
	return nn.NewSequential("trunk",
		nn.MustConv2D("conv2", conv1Out, 14, 14, conv2Out, 5, 5, 1, 0, r),
		nn.NewReLU("relu2"),
		nn.MustMaxPool2D("pool2", conv2Out, 10, 10, 2, 2),
		nn.MustConv2D("conv3", conv2Out, 5, 5, conv3Out, 5, 5, 1, 0, r),
		nn.NewReLU("relu3"),
		nn.NewDense("fc1", conv3Out, fc1Out, r),
		nn.NewReLU("relu4"),
		nn.NewDense("fc2", fc1Out, dataset.NumClasses, r),
	)
}
