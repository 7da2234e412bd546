// Package compress implements the two DNN-compression baselines the paper
// compares against in Fig. 5: an AdaDeep-style automated compression search
// and a SubFlow-style induced-subgraph executor. Both prune the trained
// LeNet baseline, and cbnet-serve's overload ladder prunes the early-exit
// network, through one structured pruner, Prune: it keeps the most
// important convolution channels and dense units of the layers it is
// named and slices the weights downstream of them to match.
package compress

import (
	"fmt"
	"maps"
	"math"
	"sort"

	"cbnet/internal/nn"
	"cbnet/internal/tensor"
)

// Prune builds a structurally-pruned copy of net. Each conv or dense layer
// named in keep keeps that fraction, in (0,1], of its output channels or
// units: the ones with the largest L1 weight norm as trained. The layers
// after it are re-sliced to read only what survives: a conv keeps the
// surviving input channels, a pool is rebuilt at the surviving channel
// count and a dense layer keeps the surviving features, each channel
// expanded over the previous volume's H×W. ReLUs are copied. The copy's
// layers carry a "~p" suffix and fresh parameter tensors, so it can be
// fine-tuned without touching net. A keep name that is not a conv or dense
// layer of net, or a layer of any other kind, is an error.
func Prune(net *nn.Sequential, keep map[string]float64) (*nn.Sequential, error) {
	unused := maps.Clone(keep)
	// kept lists the surviving channels (or features) of the volume the
	// walk has reached, in net's numbering, nil for all of them; hw is
	// that volume's H×W.
	var kept []int
	hw := 1
	layers := make([]nn.Layer, 0, len(net.Layers))
	for _, l := range net.Layers {
		switch t := l.(type) {
		case *nn.Conv2D:
			out, err := rank(t.LayerName, t.W.Value, false, keep, unused)
			if err != nil {
				return nil, err
			}
			layers = append(layers, sliceConv(t, kept, out))
			kept, hw = out, t.Dims.OutH*t.Dims.OutW
		case *nn.Dense:
			out, err := rank(t.LayerName, t.W.Value, true, keep, unused)
			if err != nil {
				return nil, err
			}
			layers = append(layers, sliceDense(t, expandChannelsToFlat(kept, hw), out))
			kept, hw = out, 1
		case *nn.MaxPool2D:
			c := t.C
			if kept != nil {
				c = len(kept)
			}
			p, err := nn.NewMaxPool2D(t.LayerName+"~p", c, t.H, t.W, t.Pool, t.Stride)
			if err != nil {
				return nil, err
			}
			layers = append(layers, p)
			hw = p.OutH * p.OutW
		case *nn.ReLU:
			layers = append(layers, nn.NewReLU(t.LayerName+"~p"))
		default:
			return nil, fmt.Errorf("compress: no pruning rule for %s layer %s (%T)", net.Name(), l.Name(), l)
		}
	}
	if len(unused) > 0 {
		return nil, fmt.Errorf("compress: %s has no conv or dense layer for keep %v", net.Name(), unused)
	}
	return nn.NewSequential(net.Name()+"-pruned", layers...), nil
}

// rank returns the output units a layer keeps: nil (all of them) unless
// keep names it, and then its top fraction by importance. It strikes the
// name from unused.
func rank(name string, w *tensor.Tensor, columns bool, keep, unused map[string]float64) ([]int, error) {
	frac, ok := keep[name]
	if !ok {
		return nil, nil
	}
	delete(unused, name)
	if !(frac > 0 && frac <= 1) {
		return nil, fmt.Errorf("compress: keep fraction %v for %s outside (0,1]", frac, name)
	}
	units := w.Shape[0]
	if columns {
		units = w.Shape[1]
	}
	return topKByImportance(w, columns, keepCount(units, frac)), nil
}

// topKByImportance returns the k output units of the rows×cols weight w
// with the largest L1 norms, in ascending index order. A unit is a row of
// w (a conv's output channel, its filter bank) or, with columns set, a
// column (a dense layer's output unit, its fan-in). Each norm is summed in
// float64 in index order; ties resolve to the lower index.
func topKByImportance(w *tensor.Tensor, columns bool, k int) []int {
	rows, cols := w.Shape[0], w.Shape[1]
	units, fan, unitStride, fanStride := rows, cols, cols, 1
	if columns {
		units, fan, unitStride, fanStride = cols, rows, 1, cols
	}
	scores := make([]float64, units)
	for u := range scores {
		for i := 0; i < fan; i++ {
			scores[u] += math.Abs(float64(w.Data[u*unitStride+i*fanStride]))
		}
	}
	idx := seq(units)
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	keep := idx[:k]
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

// sliceConv builds a conv layer keeping the given input and output
// channels (nil keeps all).
func sliceConv(c *nn.Conv2D, keepIn, keepOut []int) *nn.Conv2D {
	if keepIn == nil {
		keepIn = seq(c.Dims.InC)
	}
	if keepOut == nil {
		keepOut = seq(c.OutC)
	}
	dims := c.Dims
	dims.InC = len(keepIn)
	kk, oldCols, newCols := dims.KH*dims.KW, c.Dims.ColRows(), dims.ColRows()
	out := &nn.Conv2D{
		LayerName: c.LayerName + "~p",
		Dims:      dims,
		OutC:      len(keepOut),
		W:         &nn.Param{Name: c.LayerName + "~p/W", Value: tensor.New(len(keepOut), newCols)},
		B:         &nn.Param{Name: c.LayerName + "~p/b", Value: tensor.New(len(keepOut))},
	}
	for o, src := range keepOut {
		oldRow := c.W.Value.Data[src*oldCols : (src+1)*oldCols]
		newRow := out.W.Value.Data[o*newCols : (o+1)*newCols]
		for ni, si := range keepIn {
			copy(newRow[ni*kk:(ni+1)*kk], oldRow[si*kk:(si+1)*kk])
		}
		out.B.Value.Data[o] = c.B.Value.Data[src]
	}
	return out
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
// for a C×H×W volume flattened row-major (channel-major); nil stays nil.
func expandChannelsToFlat(keep []int, hw int) []int {
	if keep == nil {
		return nil
	}
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
