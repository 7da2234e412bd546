package models

import "cbnet/internal/nn"

// ExtractLightweight returns the paper's lightweight DNN classifier: the
// early-exit branch of BranchyNet truncated out of the full network
// (§III-B: "2 convolutional layers and 1 fully connected layer" — the stem
// conv plus the branch conv and its classifier head).
//
// The returned network shares parameter tensors with b, so it reflects any
// further training of the BranchyNet, exactly as in the paper where the
// lightweight model is the trained branch itself.
func ExtractLightweight(b *BranchyNet) *nn.Sequential {
	layers := append([]nn.Layer{}, b.Stem.Layers...)
	layers = append(layers, b.Branch.Layers...)
	return nn.NewSequential("lightweight", layers...)
}
