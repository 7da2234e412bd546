package generalize

import (
	"fmt"

	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
	"cbnet/internal/train"
)

// EncoderPipeline is the decoder-free CBNet variant from §V: the converting
// autoencoder's encoder maps an image to the bottleneck code — the point
// where hard and easy images of a class have been pulled together — and a
// small dense head classifies directly in that latent space. The decoder
// (bottleneck→784) and the convolutional lightweight classifier are both
// dropped from the inference path.
type EncoderPipeline struct {
	Encoder *nn.Sequential
	Head    *nn.Sequential
}

// ExtractEncoder returns the encoder prefix of a trained converting
// autoencoder: every layer up to and including the bottleneck (the paper's
// FullyConnected3 plus its activity regularizer). The returned network
// shares parameter tensors with the autoencoder.
func ExtractEncoder(ae *models.ConvertingAE) *nn.Sequential {
	var layers []nn.Layer
	for _, l := range ae.Net.Layers {
		layers = append(layers, l)
		if _, isReg := l.(*nn.ActivityRegularizer); isReg {
			break
		}
	}
	return nn.NewSequential("converting-encoder", layers...)
}

// NewLatentHead builds the latent-space classifier: a small two-layer MLP
// from the bottleneck width to the class logits.
func NewLatentHead(bottleneck int, r *rng.RNG) *nn.Sequential {
	hidden := bottleneck * 2
	if hidden < 32 {
		hidden = 32
	}
	return nn.NewSequential("latent-head",
		nn.NewDense("lh_fc1", bottleneck, hidden, r),
		nn.NewReLU("lh_relu"),
		nn.NewDense("lh_fc2", hidden, dataset.NumClasses, r),
	)
}

// BuildEncoderPipeline freezes a trained converting autoencoder's encoder,
// trains a latent head on the training set's class labels, and returns the
// decoder-free pipeline.
func BuildEncoderPipeline(ae *models.ConvertingAE, ds *dataset.Dataset, cfg train.Config) (*EncoderPipeline, error) {
	encoder := ExtractEncoder(ae)
	head := NewLatentHead(ae.BottleneckWidth(), rng.New(cfg.Seed^0x1A7E47))
	// The encoder is frozen: its codes are computed once, on one plan.
	plan := nn.MustCompile(encoder, train.EvalRows)
	w := ae.BottleneckWidth()
	codes := tensor.New(ds.Len(), w)
	train.EvalBatches(ds, func(i0 int, x *tensor.Tensor, _ []int) {
		copy(codes.Data[i0*w:], plan.Execute(nil, x).Data)
	})
	step, err := train.CrossEntropy(head, ds.Labels)
	if err != nil {
		return nil, fmt.Errorf("generalize: compiling the latent head: %w", err)
	}
	if _, err := train.Minibatches(head.Name(), codes, head.Params(), 0x1A7E48, cfg, step); err != nil {
		return nil, fmt.Errorf("generalize: training the latent head: %w", err)
	}
	return &EncoderPipeline{Encoder: encoder, Head: head}, nil
}

// Accuracy evaluates the pipeline over a dataset, on an encoder plan and a
// head plan compiled once for the pass.
func (p *EncoderPipeline) Accuracy(ds *dataset.Dataset) float64 {
	enc, head := nn.MustCompile(p.Encoder, train.EvalRows), nn.MustCompile(p.Head, train.EvalRows)
	return train.Accuracy(ds, func(dst []int, x *tensor.Tensor) {
		head.Execute(nil, enc.Execute(nil, x)).ArgMaxRows(dst)
	})
}

// Cost returns the per-image work of the decoder-free path.
func (p *EncoderPipeline) Cost() device.Cost {
	return device.SequentialCost(p.Encoder).Add(device.SequentialCost(p.Head))
}
