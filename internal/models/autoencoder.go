package models

import (
	"fmt"

	"cbnet/internal/dataset"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
)

// OutputActivation selects the converting autoencoder's final activation.
type OutputActivation int

// Supported output activations.
//
// The paper's Table I lists Softmax on the 784-unit output layer. A softmax
// output trained with MSE only reconstructs images whose pixels sum to one,
// so the pipeline sum-normalizes targets in that mode; the default Sigmoid
// mode reconstructs [0,1] images directly and is used for the headline
// experiments (see README.md, "Reproduction substitutions").
const (
	OutputSigmoid OutputActivation = iota
	OutputSoftmax
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
// same class. Net maps (N,784)→(N,784); Reg is the L1 activity regularizer
// attached to the encoder output (bottleneck) per §III-A3.
type ConvertingAE struct {
	Net  *nn.Sequential
	Reg  *nn.ActivityRegularizer
	Arch AEArch
	Out  OutputActivation
}

// L1Coefficient is the paper's activity-regularization strength ("L1
// penalty with a coefficient of 10e-8", i.e. 1e-7).
const L1Coefficient = 1e-7

// NewConvertingAE builds the converting autoencoder for the given
// architecture. lambda is the L1 activity coefficient (use L1Coefficient
// for the paper's setting).
func NewConvertingAE(arch AEArch, out OutputActivation, lambda float32, r *rng.RNG) *ConvertingAE {
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
	reg := nn.NewActivityRegularizer("ae_l1", lambda)
	layers = append(layers, reg)
	layers = append(layers, nn.NewDense("ae_fc4", arch.Widths[2], dataset.Pixels, r))
	switch out {
	case OutputSigmoid:
		layers = append(layers, nn.NewSigmoid("ae_out"))
	case OutputSoftmax:
		layers = append(layers, nn.NewSoftmax("ae_out"))
	default:
		panic(fmt.Sprintf("models: unknown output activation %d", out))
	}
	return &ConvertingAE{
		Net:  nn.NewSequential("converting-ae", layers...),
		Reg:  reg,
		Arch: arch,
		Out:  out,
	}
}

// NewTableIAE builds the paper's Table I autoencoder for a dataset family
// with the default sigmoid output and paper L1 coefficient.
func NewTableIAE(f dataset.Family, r *rng.RNG) *ConvertingAE {
	return NewConvertingAE(TableIArch(f), OutputSigmoid, L1Coefficient, r)
}

// BottleneckWidth returns the encoder output width (Table I's third hidden
// layer).
func (a *ConvertingAE) BottleneckWidth() int { return a.Arch.Widths[2] }
