package nn

import (
	"fmt"

	"cbnet/internal/tensor"
)

// TrainPlan is a network compiled for training: an inference plan's steps,
// run forward by Forward and in reverse by Backward, with every step
// writing a slot of its own. So the backward pass finds each step's input
// (the previous step's slot, or the caller's x) and its output, from which
// the fused activation's derivative is taken (ReLU's y > 0 is the set x > 0,
// the sigmoid's is y(1−y)); it rebuilds a pool's winning indices and a
// conv's column matrix from the input. Dense steps multiply W row-major on
// the plan's own packing panels: Adam rewrites the weights every step, and
// a packed copy would be re-made each time. Like a Plan it belongs to one
// goroutine, and once warm allocates nothing. A trainer drops its plan when
// the run ends, so a trained network keeps no training scratch.
type TrainPlan struct {
	p    *Plan
	x    []float32 // the last Forward's input, n rows
	n    int
	grad [2][]float32 // input gradients: step i writes grad[i%2]
	args []int32      // a pool step's winning input indices
	// mats are reusable matrix headers: 0 and 1 for the transposed
	// products and Penalty, 2 the view Backward returns.
	mats [3]tensor.Tensor
}

// CompileTraining compiles net for training in batches of up to batchCap
// rows. It refuses what Compile refuses, and an activity regularizer that
// no step directly precedes, that shares its step with another, or that an
// activation follows: its gradient would need the step's pre-activation
// values, which the plan does not keep.
func CompileTraining(net *Sequential, batchCap int) (*TrainPlan, error) {
	p, err := compile(net, batchCap, true)
	if err != nil {
		return nil, err
	}
	t := &TrainPlan{p: p}
	// Step i writes its input gradient to slot i%2. Step 0's is Backward's
	// alone, which grows slot 0 for it on its first call: a trainer that
	// only calls BackwardParams never holds one.
	gradW, args, in := [2]int{}, 0, p.inW
	for i := range p.steps {
		st := &p.steps[i]
		if i > 0 {
			gradW[i%2] = max(gradW[i%2], in)
		}
		if st.op == opPool {
			args = max(args, st.outW)
		}
		in = st.outW
	}
	t.grad = [2][]float32{make([]float32, batchCap*gradW[0]), make([]float32, batchCap*gradW[1])}
	t.args = make([]int32, batchCap*args)
	for i := range t.mats {
		t.mats[i].Shape = make([]int, 2)
	}
	return t, nil
}

// stepOut returns step i's output slot at the last Forward's batch.
func (t *TrainPlan) stepOut(i int) []float32 {
	st := &t.p.steps[i]
	return t.p.buf[st.outOff : st.outOff+t.n*st.outW]
}

// Forward runs the steps on x (n×inW, n ≤ the plan's capacity) and returns
// the output as a plan-owned view, valid until the next Forward. x is
// retained, not copied: it must not change before Backward.
func (t *TrainPlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	p := t.p
	if len(x.Shape) != 2 || x.Shape[1] != p.inW || x.Shape[0] > p.batchCap {
		panic(fmt.Sprintf("nn: training plan %s: input shape %v, want (N ≤ %d, %d)", p.name, x.Shape, p.batchCap, p.inW))
	}
	n := x.Shape[0]
	t.x, t.n = x.Data[:n*p.inW], n
	cur := t.x
	for i := range p.steps {
		st := &p.steps[i]
		out := t.stepOut(i)
		switch st.op {
		case opDense:
			d := st.dense
			tensor.GEMMEpilogue(cur, d.W.Value.Data, out, n, d.In, d.Out,
				tensor.Epilogue{Act: st.act, ColBias: d.B.Value.Data}, &p.pack)
		case opConv:
			p.runConv(st, cur, out, n)
		case opPool:
			st.pool.poolInfer(cur, out, n)
		}
		cur = out
	}
	return p.view(n, cur)
}

// Penalty returns the L1 activity penalty λ·Σ|y| of the last Forward, summed
// over the plan's regularizers: 0 for a network with none.
func (t *TrainPlan) Penalty() float64 {
	var s float64
	for i := range t.p.steps {
		if st := &t.p.steps[i]; st.reg != nil {
			s += float64(st.reg.Lambda) * t.mat(0, t.stepOut(i), t.n, st.outW).AbsSum()
		}
	}
	return s
}

// Backward propagates grad, the loss gradient with respect to the last
// Forward's output, through every step in reverse: it accumulates each
// parameter's gradient into Param.Grad and returns the gradient with respect
// to the input as a plan-owned view, valid until the next Backward. grad is
// overwritten.
func (t *TrainPlan) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if need := t.p.batchCap * t.p.inW; len(t.grad[0]) < need {
		t.grad[0] = make([]float32, need)
	}
	return t.mat(2, t.backward(grad, true), t.n, t.p.inW)
}

// BackwardParams is Backward for a trainer that reads no input gradient: it
// stops at the first step's parameter gradients.
func (t *TrainPlan) BackwardParams(grad *tensor.Tensor) { t.backward(grad, false) }

// backward walks the steps in reverse, g the gradient with respect to step
// i's output: the step's L1 term is added to it and its activation's
// derivative applied in place, then the step's backward turns it into the
// gradient with respect to its input, which step 0 makes only for input.
func (t *TrainPlan) backward(grad *tensor.Tensor, input bool) []float32 {
	p, n := t.p, t.n
	if len(grad.Shape) != 2 || grad.Shape[0] != n || grad.Shape[1] != p.outW {
		panic(fmt.Sprintf("nn: training plan %s: grad shape %v, want (%d, %d)", p.name, grad.Shape, n, p.outW))
	}
	g := grad.Data
	for i := len(p.steps) - 1; i >= 0; i-- {
		st := &p.steps[i]
		y := t.stepOut(i)
		if st.reg != nil {
			for j, v := range y {
				switch {
				case v > 0:
					g[j] += st.reg.Lambda
				case v < 0:
					g[j] -= st.reg.Lambda
				}
			}
		}
		switch st.act {
		case tensor.EpActReLU:
			for j, v := range y {
				if !(v > 0) {
					g[j] = 0
				}
			}
		case tensor.EpActSigmoid:
			for j, o := range y {
				g[j] = g[j] * o * (1 - o)
			}
		}
		x := t.x
		if i > 0 {
			x = t.stepOut(i - 1)
		}
		var dx []float32
		if i > 0 || input {
			dx = t.grad[i%2][:len(x)]
		}
		switch st.op {
		case opDense:
			t.denseBackward(st, x, g, dx)
		case opConv:
			t.convBackward(st, x, g, dx)
		case opPool:
			if dx != nil {
				t.poolBackward(st, x, y, g, dx)
			}
		}
		g = dx
	}
	return g
}

// mat returns reusable header i over data as a rows×cols matrix.
func (t *TrainPlan) mat(i int, data []float32, rows, cols int) *tensor.Tensor {
	m := &t.mats[i]
	m.Shape[0], m.Shape[1], m.Data = rows, cols, data[:rows*cols]
	return m
}

// denseBackward accumulates dW += xᵀ·g and db += Σ_batch g, then, when dx is
// non-nil, writes dx = g·Wᵀ.
func (t *TrainPlan) denseBackward(st *planStep, x, g, dx []float32) {
	d, n := st.dense, t.n
	gm := t.mat(0, g, n, d.Out)
	tensor.MatMulTransAAcc(d.W.Grad(), t.mat(1, x, n, d.In), gm, &t.p.pack)
	gm.SumRowsInto(d.B.Grad())
	if dx != nil {
		tensor.MatMulTransBInto(t.mat(1, dx, n, d.In), gm, d.W.Value, &t.p.pack)
	}
}

// convBackward regroups g channel-major, rebuilds the batch's column matrix
// from x (a direct step never built one) and accumulates dW += g·colsᵀ, one
// product over the batch, and db += the row sums of g. When dx is non-nil
// it then writes dcol = Wᵀ·g over the column matrix and adds it back to
// image space sample by sample.
func (t *TrainPlan) convBackward(st *planStep, x, g, dx []float32) {
	p, c, n := t.p, st.conv, t.n
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	batchCols := n * colCols
	cols := p.buf[st.colOff : st.colOff+colRows*batchCols]
	gc := p.buf[st.gemmOff : st.gemmOff+c.OutC*batchCols]
	c.gather(g, gc, n)
	c.im2col(x, cols, n)
	gm := t.mat(0, gc, c.OutC, batchCols)
	colm := t.mat(1, cols, colRows, batchCols)
	tensor.MatMulTransBAcc(c.W.Grad(), gm, colm, &p.pack)
	db := c.B.Grad().Data
	for oc := range c.OutC {
		var s float32
		for _, v := range gc[oc*batchCols : (oc+1)*batchCols] {
			s += v
		}
		db[oc] += s
	}
	if dx == nil {
		return
	}
	tensor.MatMulTransAInto(colm, c.W.Value, gm, &p.pack)
	clear(dx)
	inSize := c.InSize()
	for i := 0; i < n; i++ {
		tensor.Col2ImFrom(dx[i*inSize:(i+1)*inSize], c.Dims, cols, batchCols, i*colCols)
	}
}

// poolBackward routes each output gradient to the input position that won
// its window, found again by poolRange over the retained input (rewriting y
// with the values it holds).
func (t *TrainPlan) poolBackward(st *planStep, x, y, g, dx []float32) {
	pl, n := st.pool, t.n
	outW, inSize := st.outW, pl.InSize()
	args := t.args[:n*outW]
	pl.poolRange(x, y, args, n)
	clear(dx)
	for i := 0; i < n; i++ {
		d := dx[i*inSize : (i+1)*inSize]
		for j, a := range args[i*outW : (i+1)*outW] {
			d[a] += g[i*outW+j]
		}
	}
}
