package compress

import (
	"fmt"

	"cbnet/internal/nn"
)

// lenetParts holds the typed layers of the models.NewLeNet layout.
type lenetParts struct {
	conv1, conv2, conv3 *nn.Conv2D
	fc1, fc2            *nn.Dense
}

// dissectLeNet extracts the named layers of a LeNet built by
// models.NewLeNet, validating the expected layout.
func dissectLeNet(lenet *nn.Sequential) (lenetParts, error) {
	var p lenetParts
	for _, l := range lenet.Layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			switch t.LayerName {
			case "conv1":
				p.conv1 = t
			case "conv2":
				p.conv2 = t
			case "conv3":
				p.conv3 = t
			}
		case *nn.Dense:
			switch t.LayerName {
			case "fc1":
				p.fc1 = t
			case "fc2":
				p.fc2 = t
			}
		}
	}
	if p.conv1 == nil || p.conv2 == nil || p.conv3 == nil || p.fc1 == nil || p.fc2 == nil {
		return p, fmt.Errorf("compress: network does not have the LeNet layout")
	}
	return p, nil
}

// PruneConfig sets the fraction of conv2/conv3 channels and fc1 units kept
// by structured pruning. conv1 (3 channels) and the 10-way output stay
// intact.
type PruneConfig struct {
	Conv2Keep, Conv3Keep, FC1Keep float64
}

func (c PruneConfig) validate() error {
	for _, f := range []float64{c.Conv2Keep, c.Conv3Keep, c.FC1Keep} {
		if f <= 0 || f > 1 {
			return fmt.Errorf("compress: keep fraction %v outside (0,1]", f)
		}
	}
	return nil
}

// String renders the config compactly for reports.
func (c PruneConfig) String() string {
	return fmt.Sprintf("conv2=%.2f conv3=%.2f fc1=%.2f", c.Conv2Keep, c.Conv3Keep, c.FC1Keep)
}

// PruneLeNet builds a structurally-pruned copy of a trained LeNet: the
// most important channels/units (by L1 weight norm) are kept and all
// downstream weights are re-sliced to match. The original network is not
// modified; the copy has fresh parameter tensors and can be fine-tuned.
func PruneLeNet(lenet *nn.Sequential, cfg PruneConfig) (*nn.Sequential, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p, err := dissectLeNet(lenet)
	if err != nil {
		return nil, err
	}
	keep2 := topKByImportance(p.conv2.W.Value, keepCount(p.conv2.OutC, cfg.Conv2Keep))
	keep3 := topKByImportance(p.conv3.W.Value, keepCount(p.conv3.OutC, cfg.Conv3Keep))
	keepF := denseTopKByImportance(p.fc1.W.Value, keepCount(p.fc1.Out, cfg.FC1Keep))

	conv1 := cloneConv(p.conv1)
	conv2 := sliceConvOutputs(p.conv2, keep2)
	conv3in, err := sliceConvInputs(p.conv3, keep2)
	if err != nil {
		return nil, err
	}
	conv3 := sliceConvOutputs(conv3in, keep3)
	// conv3 output is 1×1 spatial, so flat features == channel indices.
	fc1 := sliceDense(p.fc1, keep3, keepF)
	fc2 := sliceDense(p.fc2, keepF, nil)

	pool2, err := nn.NewMaxPool2D("pool2~p", len(keep2), 10, 10, 2, 2)
	if err != nil {
		return nil, err
	}
	return nn.NewSequential("lenet-pruned",
		conv1,
		nn.NewReLU("relu1~p"),
		nn.MustMaxPool2D("pool1~p", conv1.OutC, 28, 28, 2, 2),
		conv2,
		nn.NewReLU("relu2~p"),
		pool2,
		conv3,
		nn.NewReLU("relu3~p"),
		fc1,
		nn.NewReLU("relu4~p"),
		fc2,
	), nil
}

// cloneConv deep-copies a conv layer (weights and geometry, fresh grads).
func cloneConv(c *nn.Conv2D) *nn.Conv2D {
	return &nn.Conv2D{
		LayerName: c.LayerName + "~p",
		Dims:      c.Dims,
		OutC:      c.OutC,
		W:         &nn.Param{Name: c.LayerName + "~p/W", Value: c.W.Value.Clone()},
		B:         &nn.Param{Name: c.LayerName + "~p/b", Value: c.B.Value.Clone()},
	}
}
