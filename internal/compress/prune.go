// Package compress implements the two DNN-compression baselines the paper
// compares against in Fig. 5: an AdaDeep-style automated compression search
// and a SubFlow-style induced-subgraph executor. Both operate on the trained
// LeNet baseline via structured pruning: keeping the most important
// convolution channels and dense units and slicing the downstream weights
// accordingly.
package compress

import (
	"fmt"
	"sort"

	"cbnet/internal/nn"
	"cbnet/internal/tensor"
)

// topKByImportance returns the indices of the k rows of w (shape rows×cols)
// with the largest L1 norms, in ascending index order. Row i of a conv
// weight is output channel i's filter bank; of a dense weightᵀ it is an
// output unit's fan-in. Ties resolve to the lower index for determinism.
func topKByImportance(w *tensor.Tensor, k int) []int {
	rows, cols := w.Shape[0], w.Shape[1]
	type scored struct {
		idx   int
		score float64
	}
	s := make([]scored, rows)
	for i := 0; i < rows; i++ {
		var norm float64
		for _, v := range w.Data[i*cols : (i+1)*cols] {
			if v < 0 {
				norm -= float64(v)
			} else {
				norm += float64(v)
			}
		}
		s[i] = scored{i, norm}
	}
	sort.Slice(s, func(a, b int) bool {
		if s[a].score != s[b].score {
			return s[a].score > s[b].score
		}
		return s[a].idx < s[b].idx
	})
	keep := make([]int, k)
	for i := 0; i < k; i++ {
		keep[i] = s[i].idx
	}
	sort.Ints(keep)
	return keep
}

// denseTopKByImportance ranks dense output units by the L1 norm of their
// incoming weights (w has shape in×out; unit j's fan-in is column j).
func denseTopKByImportance(w *tensor.Tensor, k int) []int {
	in, out := w.Shape[0], w.Shape[1]
	scores := make([]float64, out)
	for i := 0; i < in; i++ {
		row := w.Data[i*out : (i+1)*out]
		for j, v := range row {
			if v < 0 {
				scores[j] -= float64(v)
			} else {
				scores[j] += float64(v)
			}
		}
	}
	idx := make([]int, out)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	keep := append([]int(nil), idx[:k]...)
	sort.Ints(keep)
	return keep
}

// keepCount converts a keep-fraction to a channel/unit count, at least 1.
func keepCount(total int, frac float64) int {
	k := int(frac*float64(total) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > total {
		k = total
	}
	return k
}

// sliceConvOutputs builds a conv layer keeping only the given output
// channels.
func sliceConvOutputs(c *nn.Conv2D, keep []int) *nn.Conv2D {
	cols := c.Dims.ColRows()
	out := &nn.Conv2D{
		LayerName: c.LayerName + "~p",
		Dims:      c.Dims,
		OutC:      len(keep),
		W:         &nn.Param{Name: c.LayerName + "~p/W", Value: tensor.New(len(keep), cols)},
		B:         &nn.Param{Name: c.LayerName + "~p/b", Value: tensor.New(len(keep))},
	}
	for o, src := range keep {
		copy(out.W.Value.Data[o*cols:(o+1)*cols], c.W.Value.Data[src*cols:(src+1)*cols])
		out.B.Value.Data[o] = c.B.Value.Data[src]
	}
	return out
}

// sliceConvInputs builds a conv layer keeping only the given input channels
// (the upstream layer was pruned). keep indexes the original input channels.
func sliceConvInputs(c *nn.Conv2D, keep []int) (*nn.Conv2D, error) {
	d := c.Dims
	newDims, err := tensor.NewConvDims(len(keep), d.InH, d.InW, d.KH, d.KW, d.Stride, d.Pad)
	if err != nil {
		return nil, fmt.Errorf("compress: reslicing %s: %w", c.LayerName, err)
	}
	kk := d.KH * d.KW
	out := &nn.Conv2D{
		LayerName: c.LayerName + "~p",
		Dims:      newDims,
		OutC:      c.OutC,
		W:         &nn.Param{Name: c.LayerName + "~p/W", Value: tensor.New(c.OutC, newDims.ColRows())},
		B:         &nn.Param{Name: c.LayerName + "~p/b", Value: c.B.Value.Clone()},
	}
	oldCols := d.ColRows()
	newCols := newDims.ColRows()
	for oc := 0; oc < c.OutC; oc++ {
		oldRow := c.W.Value.Data[oc*oldCols : (oc+1)*oldCols]
		newRow := out.W.Value.Data[oc*newCols : (oc+1)*newCols]
		for ni, src := range keep {
			copy(newRow[ni*kk:(ni+1)*kk], oldRow[src*kk:(src+1)*kk])
		}
	}
	return out, nil
}

// sliceDense builds a dense layer keeping the given input rows and output
// columns (nil keeps all).
func sliceDense(d *nn.Dense, keepIn, keepOut []int) *nn.Dense {
	if keepIn == nil {
		keepIn = seq(d.In)
	}
	if keepOut == nil {
		keepOut = seq(d.Out)
	}
	out := &nn.Dense{
		LayerName: d.LayerName + "~p",
		In:        len(keepIn),
		Out:       len(keepOut),
		W:         &nn.Param{Name: d.LayerName + "~p/W", Value: tensor.New(len(keepIn), len(keepOut))},
		B:         &nn.Param{Name: d.LayerName + "~p/b", Value: tensor.New(len(keepOut))},
	}
	for ni, si := range keepIn {
		for nj, sj := range keepOut {
			out.W.Value.Data[ni*len(keepOut)+nj] = d.W.Value.Data[si*d.Out+sj]
		}
	}
	for nj, sj := range keepOut {
		out.B.Value.Data[nj] = d.B.Value.Data[sj]
	}
	return out
}

// expandChannelsToFlat maps kept channel indices to flat feature indices
// for a C×H×W volume flattened row-major (channel-major).
func expandChannelsToFlat(keep []int, hw int) []int {
	out := make([]int, 0, len(keep)*hw)
	for _, c := range keep {
		for i := 0; i < hw; i++ {
			out = append(out, c*hw+i)
		}
	}
	return out
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
