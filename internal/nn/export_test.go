package nn

import "cbnet/internal/tensor"

// MixedTestNet hands the package's mixed test network to the external
// tests, which walk it through ReferenceExecute beside the shipped ones.
var MixedTestNet = mixedTestNet

// RaceEnabled tells the external tests whether the race detector, which
// allocates, is on.
const RaceEnabled = raceEnabled

// ReferenceExecute runs p's compiled steps on x the way plans ran before
// their operands were bound to the micro-kernel: dense weights read
// row-major through tensor.GEMMEpilogue, the column matrix expanded
// row-major by tensor.Im2ColInto and packed inside the product, pooling
// through the general loop that also tracks the arg-max. A direct conv step
// runs tensor.ConvDirect, which tensor's tests hold to im2col + the blocked
// GEMM bit for bit. It allocates its own buffers and shares nothing with
// Execute but the step list and the layers, so equal bits from the two mean
// the packed forms and the plan's buffer offsets changed no arithmetic.
// Test-only: the external tests of this package walk every shipped network
// through it.
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
		case opConv:
			c := st.conv
			ep := tensor.Epilogue{Act: st.act, RowBias: c.B.Value.Data}
			if st.direct {
				tensor.ConvDirect(make([]float32, tensor.ConvDirectLen(c.Dims, c.OutC)), cur, n, c.Dims, c.W.Value.Data, c.OutC, ep, out)
				break
			}
			colRows, batchCols := c.Dims.ColRows(), n*c.Dims.ColCols()
			col := make([]float32, colRows*batchCols)
			c.im2col(cur, col, n)
			gemmOut := make([]float32, c.OutC*batchCols)
			tensor.GEMMEpilogue(c.W.Value.Data, col, gemmOut, c.OutC, colRows, batchCols, ep, nil)
			c.scatter(gemmOut, out, n)
		case opPool:
			st.pool.poolRange(cur, out, make([]int32, len(out)), n)
		}
		cur = out
	}
	return tensor.FromSlice(cur, n, p.outW)
}
