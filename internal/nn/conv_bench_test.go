package nn_test

import (
	"testing"

	"cbnet/internal/models"
	"cbnet/internal/nn"
	"cbnet/internal/rng"
	"cbnet/internal/tensor"
)

// BenchmarkConvBackward times one training Backward of each shipped conv
// at a minibatch of 32 — LeNet's conv1, conv2 and conv3 (conv3 is also
// BranchyNet's trunk) and BranchyNet's branch conv bconv: the dW product,
// the dcol product and its col2im, the bias sums and the regroup copy.
// ROADMAP item 1 holds the numbers.
func BenchmarkConvBackward(b *testing.B) {
	const batch = 32
	r := rng.New(7)
	convs := []*nn.Conv2D{}
	for _, l := range models.NewLeNet(r).Layers {
		if c, ok := l.(*nn.Conv2D); ok {
			convs = append(convs, c)
		}
	}
	convs = append(convs, models.NewBranchyLeNet(r, 0).Branch.Layers[0].(*nn.Conv2D))
	for _, c := range convs {
		x := tensor.New(batch, c.InSize())
		x.RandNormal(r, 0, 1)
		out, err := c.OutSize(c.InSize())
		if err != nil {
			b.Fatal(err)
		}
		grad := tensor.New(batch, out)
		grad.RandNormal(r, 0, 1)
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				b.StopTimer()
				c.Forward(x)
				b.StartTimer()
				c.Backward(grad)
			}
		})
	}
}
