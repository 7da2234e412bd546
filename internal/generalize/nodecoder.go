package generalize

import (
	"fmt"
	"io"

	"cbnet/internal/dataset"
	"cbnet/internal/device"
	"cbnet/internal/loss"
	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/opt"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
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

// TrainOptions configures latent-head training.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	LR        float32
	Seed      uint64
	Log       io.Writer
}

func (o *TrainOptions) fill() {
	if o.Epochs == 0 {
		o.Epochs = 6
	}
	if o.BatchSize == 0 {
		o.BatchSize = 32
	}
	if o.LR == 0 {
		o.LR = 0.002
	}
}

// BuildEncoderPipeline freezes a trained converting autoencoder's encoder,
// trains a latent head on the training set's class labels, and returns the
// decoder-free pipeline.
func BuildEncoderPipeline(ae *models.ConvertingAE, ds *dataset.Dataset, o TrainOptions) (*EncoderPipeline, error) {
	o.fill()
	if ds.Len() == 0 {
		return nil, fmt.Errorf("generalize: empty training set")
	}
	encoder := ExtractEncoder(ae)
	head := NewLatentHead(ae.BottleneckWidth(), rng.New(o.Seed^0x1A7E47))

	// Precompute the (frozen) encoder outputs once.
	codes := encodeAll(encoder, ds)
	optimizer := opt.NewAdam(o.LR)
	r := rng.New(o.Seed ^ 0x1A7E48)
	n := ds.Len()
	w := ae.BottleneckWidth()
	xBuf := tensor.New(o.BatchSize, w)
	for epoch := 0; epoch < o.Epochs; epoch++ {
		perm := r.Perm(n)
		var epochLoss float64
		for i0 := 0; i0 < n; i0 += o.BatchSize {
			i1 := i0 + o.BatchSize
			if i1 > n {
				i1 = n
			}
			bs := i1 - i0
			labels := make([]int, bs)
			for j, p := range perm[i0:i1] {
				copy(xBuf.Data[j*w:(j+1)*w], codes.Data[p*w:(p+1)*w])
				labels[j] = ds.Labels[p]
			}
			x := tensor.FromSlice(xBuf.Data[:bs*w], bs, w)
			logits := head.Forward(x)
			l, grad := loss.CrossEntropy(logits, labels)
			head.Backward(grad)
			optimizer.Step(head.Params())
			epochLoss += l * float64(bs)
		}
		if o.Log != nil {
			fmt.Fprintf(o.Log, "latent-head epoch %d/%d loss %.4f\n", epoch+1, o.Epochs, epochLoss/float64(n))
		}
	}
	return &EncoderPipeline{Encoder: encoder, Head: head}, nil
}

// encodeAll runs the encoder's compiled plan (nn.Run) over the whole dataset.
func encodeAll(encoder *nn.Sequential, ds *dataset.Dataset) *tensor.Tensor {
	const bs = 256
	n := ds.Len()
	w, err := encoder.OutSize(dataset.Pixels)
	if err != nil {
		panic(fmt.Sprintf("generalize: encoder shape: %v", err))
	}
	out := tensor.New(n, w)
	for i0 := 0; i0 < n; i0 += bs {
		i1 := i0 + bs
		if i1 > n {
			i1 = n
		}
		x, _ := ds.Batch(i0, i1)
		codes := nn.Run(encoder, x)
		copy(out.Data[i0*w:i1*w], codes.Data)
	}
	return out
}

// Infer classifies a batch of images.
func (p *EncoderPipeline) Infer(x *tensor.Tensor) []int {
	logits := nn.Run(p.Head, nn.Run(p.Encoder, x))
	preds := make([]int, x.Shape[0])
	for i := range preds {
		preds[i] = logits.Row(i).ArgMax()
	}
	return preds
}

// Accuracy evaluates the pipeline over a dataset.
func (p *EncoderPipeline) Accuracy(ds *dataset.Dataset) float64 {
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

// Cost returns the per-image work of the decoder-free path.
func (p *EncoderPipeline) Cost() device.Cost {
	return device.SequentialCost(p.Encoder).Add(device.SequentialCost(p.Head))
}
