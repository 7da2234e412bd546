package models

import (
	"fmt"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
)

// AEArch describes a converting-autoencoder architecture: the widths of the
// three hidden fully-connected layers of Table I and whether each uses relu
// (true) or linear (false) activation.
type AEArch struct {
	Widths [3]int
	Relu   [3]bool
}

// TableIArch returns the paper's per-dataset autoencoder architecture
// (Table I):
//
//	MNIST : 784-784r-384r-32l-784
//	FMNIST: 784-512r-256r-128l-784
//	KMNIST: 784-512r-384l-32l-784
func TableIArch(f dataset.Family) AEArch {
	switch f {
	case dataset.MNIST:
		return AEArch{Widths: [3]int{784, 384, 32}, Relu: [3]bool{true, true, false}}
	case dataset.FashionMNIST:
		return AEArch{Widths: [3]int{512, 256, 128}, Relu: [3]bool{true, true, false}}
	case dataset.KMNIST:
		return AEArch{Widths: [3]int{512, 384, 32}, Relu: [3]bool{true, false, false}}
	default:
		return AEArch{Widths: [3]int{512, 256, 64}, Relu: [3]bool{true, true, false}}
	}
}

// ConvertingAE is the paper's core contribution: an autoencoder trained to
// transform an arbitrary (possibly hard) image into an easy image of the
// same class. Net maps (N,784)→(N,784), with the L1 activity regularizer
// on the encoder output (bottleneck) per §III-A3.
type ConvertingAE struct {
	Net  *nn.Sequential
	Arch AEArch
}

// L1Coefficient is the paper's activity-regularization strength ("L1
// penalty with a coefficient of 10e-8", i.e. 1e-7).
const L1Coefficient = 1e-7

// NewConvertingAE builds the converting autoencoder for the given
// architecture. lambda is the L1 activity coefficient (use L1Coefficient
// for the paper's setting). Table I ends the AE in a softmax over the 784
// output pixels; trained with MSE that reconstructs only images whose pixels
// sum to one, so the output here is a sigmoid, which reconstructs [0,1]
// images directly (see README.md, "Reproduction substitutions").
func NewConvertingAE(arch AEArch, lambda float32, r *rng.RNG) *ConvertingAE {
	mk := func(name string, in, width int, relu bool, idx int) []nn.Layer {
		var layers []nn.Layer
		if relu {
			layers = append(layers, nn.NewDense(name, in, width, r), nn.NewReLU(fmt.Sprintf("ae_relu%d", idx)))
		} else {
			layers = append(layers, nn.NewDenseXavier(name, in, width, r))
		}
		return layers
	}
	var layers []nn.Layer
	layers = append(layers, mk("ae_fc1", dataset.Pixels, arch.Widths[0], arch.Relu[0], 1)...)
	layers = append(layers, mk("ae_fc2", arch.Widths[0], arch.Widths[1], arch.Relu[1], 2)...)
	layers = append(layers, mk("ae_fc3", arch.Widths[1], arch.Widths[2], arch.Relu[2], 3)...)
	layers = append(layers, nn.NewActivityRegularizer("ae_l1", lambda),
		nn.NewDense("ae_fc4", arch.Widths[2], dataset.Pixels, r), nn.NewSigmoid("ae_out"))
	return &ConvertingAE{
		Net:  nn.NewSequential("converting-ae", layers...),
		Arch: arch,
	}
}

// NewTableIAE builds the paper's Table I autoencoder for a dataset family
// with the paper's L1 coefficient.
func NewTableIAE(f dataset.Family, r *rng.RNG) *ConvertingAE {
	return NewConvertingAE(TableIArch(f), L1Coefficient, r)
}

// BottleneckWidth returns the encoder output width (Table I's third hidden
// layer).
func (a *ConvertingAE) BottleneckWidth() int { return a.Arch.Widths[2] }
