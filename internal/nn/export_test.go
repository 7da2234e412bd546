package nn

import "cbnet/internal/tensor"

// MixedTestNet hands the package's mixed test network to the external
// tests, which walk it through ReferenceExecute beside the shipped ones.
var MixedTestNet = mixedTestNet

// ReferenceExecute runs p's compiled steps on x the way plans ran before
// their operands were bound to the micro-kernel: dense weights read
// row-major through tensor.GEMMEpilogue, the column matrix expanded
// row-major by tensor.Im2ColInto and packed inside the product, pooling
// through the general loop that also tracks the arg-max. It allocates its
// own buffers and shares nothing with Execute but the step list and the
// layers, so equal bits from the two mean the packed forms changed no
// arithmetic. Test-only: the external tests of this package walk every
// shipped network through it.
func (p *Plan) ReferenceExecute(x *tensor.Tensor) *tensor.Tensor {
	n := x.Shape[0]
	cur := x.Data[:n*p.inW]
	for i := range p.steps {
		st := &p.steps[i]
		out := make([]float32, n*st.outW)
		switch st.op {
		case opDense:
			d := st.dense
			tensor.GEMMEpilogue(cur, d.W.Value.Data, out, n, d.In, d.Out,
				tensor.Epilogue{Act: st.act, ColBias: d.B.Value.Data}, nil)
			if st.softmax {
				for r := 0; r < n; r++ {
					SoftmaxRow(out[r*d.Out : (r+1)*d.Out])
				}
			}
		case opConv:
			c := st.conv
			colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
			batchCols := n * colCols
			col := make([]float32, colRows*batchCols)
			c.im2colRange(cur, col, batchCols, 0, n)
			gemmOut := make([]float32, c.OutC*batchCols)
			tensor.GEMMEpilogue(c.W.Value.Data, col, gemmOut, c.OutC, colRows, batchCols,
				tensor.Epilogue{Act: st.act, RowBias: c.B.Value.Data}, nil)
			c.scatterRange(gemmOut, out, colCols, batchCols, 0, n)
		case opPool:
			st.pool.poolRange(cur, out, make([]int32, len(out)), 0, n)
		case opAct:
			runAct(st, cur, out, n)
		}
		cur = out
	}
	return tensor.FromSlice(cur, n, p.outW)
}
