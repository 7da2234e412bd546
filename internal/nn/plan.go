package nn

import (
	"fmt"
	"strings"

	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// The plan compiler: ahead-of-time compilation for Sequential networks, the
// one lowering both inference and training run. Compile runs shape
// inference once, drops the inference-identity ActivityRegularizer, fuses
// every activation into the epilogue of the dense or conv step directly
// before it (Conv2D+ReLU, Conv2D+Sigmoid, Dense+ReLU, Dense+Sigmoid), so a
// plan has dense, conv and pool steps and no other kind, counts each step's
// work (Work: the one count of a network's work, which
// device.Cost prices), and assigns every intermediate a fixed offset in one
// preplanned buffer. Plan.Execute is then a flat loop over precompiled
// steps — no interface dispatch, no type assertions, and zero steady-state
// heap allocations. It is the only way a network runs: serving compiles once
// per worker, evaluation calls Run, and the trainers step through a training
// plan (CompileTraining, train_plan.go) of the same steps. A network with a
// layer type the compiler does not know is rejected at Compile, not run some
// other way.
//
// Buffer planning is ping-pong liveness: only one intermediate is live
// between consecutive steps, so step i reads slot i%2−1 and writes slot
// i%2, and each slot is sized to the widest tensor it ever holds at the
// plan's batch capacity (a training plan instead keeps every step's output
// for its backward pass). Convolution steps additionally share one scratch
// region — an im2col column matrix and a channel-major GEMM output, or for
// a direct step one padded frame and one group of output planes — sized to
// the largest conv step under the micro-kernel and blocked gate in force at
// Compile (tests that swap either do it before compiling). Everything lives
// in a single []float32 owned by the plan.
//
// What a step's GEMM reads as its B operand is bound to the micro-kernel
// ahead of the product wherever the product takes the blocked path
// (tensor.BlockedGEMM, asked per Execute of the live batch: under an FMA
// kernel every batch of two rows or more; a single row's gemv, summing in
// the same order, reads B row-major). A dense step's weights are packed once,
// at Compile, into the kernel's sliver layout and kept on the layer, one
// copy for all plans of the network; Execute packs nothing constant. A conv
// step's column matrix is expanded straight into that layout, in the conv
// scratch region, and never exists row-major. A conv with fewer output
// channels than the kernel's tile has rows (tensor.DirectConv: conv1 and
// bconv, every conv of the lightweight classifier) has no column matrix at
// all: Compile makes it a direct step once, for every batch size, and the
// step accumulates each output plane over the image's padded frame, the
// blocked path's arithmetic tap for tap, so an image's bits do not depend
// on the batch it rides in.
//
// A plan runs on the goroutine that calls Execute, and nothing beneath
// Execute starts a goroutine, on any kernel: nothing in tensor or nn does.
// The engine's workers are the one fan-out.
//
// Weights contract: a plan serves the parameter values as of their last
// Param.Touch. Conv weights and all biases are read in place; packed dense
// weights are re-packed by the first Execute after a Touch (and after the
// active micro-kernel's sliver width changes), at the price of one integer
// compare per dense step per Execute. The optimiser and the checkpoint
// loader Touch what they write.

// planOp discriminates the precompiled step kinds.
type planOp uint8

const (
	// opDense is a fused dense stage: y = act(xW + b).
	opDense planOp = iota
	// opConv is a fused convolution stage: batched im2col, one GEMM with
	// the per-channel bias and activation in its write-back epilogue, and
	// a pure regroup copy to sample-major layout — or, for a direct
	// step, the direct convolution with the same epilogue.
	opConv
	// opPool is a max-pooling stage.
	opPool
)

// planStep is one precompiled stage of a Plan. Steps reference their source
// layers (read-only at inference) rather than copies of their parameters;
// see the weights contract above.
type planStep struct {
	op   planOp
	name string             // fused label, e.g. "conv1+relu1"
	act  tensor.EpilogueAct // fused activation (opDense/opConv)

	outW   int
	outOff int // output offset into Plan.buf (the step's ping-pong slot)

	dense *Dense
	conv  *Conv2D
	pool  *MaxPool2D
	// reg is the activity regularizer on the step's output, in a training
	// plan only: an inference plan elides it.
	reg *ActivityRegularizer

	// conv-only: direct is Compile's tensor.DirectConv verdict, which
	// every batch follows. Scratch into Plan.buf: colOff/colLen hold the
	// batch's column matrix (packed for the blocked path, row-major
	// otherwise) or the direct path's frame and planes, gemmOff the
	// channel-major GEMM output.
	direct                  bool
	colOff, colLen, gemmOff int

	// Compile-time cost model: the per-sample work counted as the step is
	// lowered, and, filled by annotateCosts, its FLOPs, the activation
	// traffic per sample and the per-execution parameter traffic that is
	// independent of batch size. Step spans derive achieved GFLOPS and
	// arithmetic intensity from these (see StepInfo for the model's
	// definition).
	work        Work
	flopsPerImg int64
	ioPerImg    int64
	fixedBytes  int64
}

// Work is a step's per-image work by op class. Compile counts it as it
// lowers each layer, and nothing else counts a network's work: device.Cost is
// the sum of a plan's Work, priced per device.
type Work struct {
	ConvMACs  int // multiply-accumulates in convolutions
	DenseMACs int // multiply-accumulates in dense products
	PoolOps   int // comparisons in pooling windows
	ElemOps   int // bias adds and activation ops, one an element each
	Layers    int // source layers fused into the step: dispatch overhead
}

// flops is the work in floating-point operations: two per multiply-accumulate
// and one per every other op.
func (w Work) flops() int64 {
	return 2*int64(w.ConvMACs+w.DenseMACs) + int64(w.PoolOps+w.ElemOps)
}

// Plan is a compiled inference program for one Sequential at a fixed batch
// capacity. A Plan owns its intermediate buffer and is therefore
// single-goroutine: engine workers each compile their own. The layers'
// weights are shared and read-only.
type Plan struct {
	name     string
	batchCap int
	inW      int
	outW     int
	steps    []planStep
	buf      []float32
	pack     tensor.PackScratch // plan-owned GEMM A panel and accumulator tile
	outHdr   tensor.Tensor      // reusable view header returned by Execute

	// Tracing, attached by EnableTracing. Nil by default, in which case
	// Execute pays one branch per step and nothing else. Each traced step
	// emits one span, the step's only record of its time and work. Like
	// the plan's buffers, the recorder and traceID belong to the plan's
	// single executing goroutine.
	rec     *trace.Recorder
	nameIDs []trace.NameID // parallel to steps
	traceID uint64         // correlation ID stamped on emitted spans
}

// Compile builds the static execution plan of net for batches of up to
// batchCap rows. It fails on non-positive capacities, on layer types it has
// no step for, on an activation that does not directly follow a dense or conv
// layer free of one, and on networks whose input width cannot be inferred (no
// shape-bearing layer).
func Compile(net *Sequential, batchCap int) (*Plan, error) {
	return compile(net, batchCap, false)
}

// compile lowers net for Compile, or with training set for CompileTraining,
// whose plan gives every step its own output slot, hangs each activity
// regularizer on the step before it and multiplies dense steps by W
// row-major instead of packing it.
func compile(net *Sequential, batchCap int, training bool) (*Plan, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: Compile of nil network")
	}
	if batchCap <= 0 {
		return nil, fmt.Errorf("nn: Compile %s: non-positive batch capacity %d", net.Name(), batchCap)
	}
	p := &Plan{name: net.Name(), batchCap: batchCap, inW: -1}
	width := -1

	// fuse folds an activation into the epilogue of the step before it,
	// which must be a dense or conv step that carries no activation yet.
	fuse := func(act tensor.EpilogueAct, name string) error {
		n := len(p.steps)
		if n == 0 || p.steps[n-1].op == opPool || p.steps[n-1].act != tensor.EpActNone {
			return fmt.Errorf("nn: Compile %s: activation %s has no step to fuse into: it must directly follow a dense or conv layer that carries no activation", net.Name(), name)
		}
		st := &p.steps[n-1]
		if st.reg != nil {
			return fmt.Errorf("nn: CompileTraining %s: activation %s follows activity regularizer %s, whose gradient needs the pre-activation values the step does not keep", net.Name(), name, st.reg.Name())
		}
		st.act = act
		st.name += "+" + name
		st.work.ElemOps += st.outW
		st.work.Layers++
		return nil
	}
	shaped := func(name string, in int) error {
		if width < 0 {
			width = in
			p.inW = in
			return nil
		}
		if width != in {
			return fmt.Errorf("nn: Compile %s: %s wants input width %d, got %d", net.Name(), name, in, width)
		}
		return nil
	}

	for _, l := range net.Layers {
		switch l := l.(type) {
		case *ActivityRegularizer:
			// Identity at inference: elided, no work. In training its L1
			// term rides the step before it.
			if !training {
				break
			}
			if n := len(p.steps); n == 0 || p.steps[n-1].reg != nil {
				return nil, fmt.Errorf("nn: CompileTraining %s: activity regularizer %s has no step of its own to follow", net.Name(), l.Name())
			}
			p.steps[len(p.steps)-1].reg = l
		case *Dense:
			if err := shaped(l.Name(), l.In); err != nil {
				return nil, err
			}
			p.steps = append(p.steps, planStep{op: opDense, name: l.Name(), dense: l, outW: l.Out,
				work: Work{DenseMACs: l.In * l.Out, ElemOps: l.Out, Layers: 1}}) // + bias adds
			width = l.Out
			if !training && tensor.BlockedGEMM(batchCap, l.In) {
				l.packed() // some batch ≤ batchCap takes the blocked path: pack W now
			}
		case *Conv2D:
			if err := shaped(l.Name(), l.InSize()); err != nil {
				return nil, err
			}
			out, err := l.OutSize(l.InSize())
			if err != nil {
				return nil, fmt.Errorf("nn: Compile %s: %w", net.Name(), err)
			}
			p.steps = append(p.steps, planStep{op: opConv, name: l.Name(), conv: l, outW: out,
				direct: tensor.DirectConv(l.OutC, l.Dims),
				work:   Work{ConvMACs: out * l.Dims.ColRows(), ElemOps: out, Layers: 1}}) // + bias adds
			width = out
		case *MaxPool2D:
			if err := shaped(l.Name(), l.InSize()); err != nil {
				return nil, err
			}
			out, err := l.OutSize(l.InSize())
			if err != nil {
				return nil, fmt.Errorf("nn: Compile %s: %w", net.Name(), err)
			}
			p.steps = append(p.steps, planStep{op: opPool, name: l.Name(), pool: l, outW: out,
				work: Work{PoolOps: out * l.Pool * l.Pool, Layers: 1}})
			width = out
		case *ReLU:
			if err := fuse(tensor.EpActReLU, l.Name()); err != nil {
				return nil, err
			}
		case *Sigmoid:
			if err := fuse(tensor.EpActSigmoid, l.Name()); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("nn: Compile %s: no plan step for layer %s (%T): add one to Compile, inference runs on plans only", net.Name(), l.Name(), l)
		}
	}
	if width < 0 {
		return nil, fmt.Errorf("nn: Compile %s: no shape-bearing layer to infer the input width from", net.Name())
	}
	p.outW = width
	p.planBuffer(training)
	p.annotateCosts()
	return p, nil
}

// annotateCosts derives each step's FLOPs from its work and fills its
// compile-time byte model. Shapes are fully known after shape inference, so
// the model costs nothing at run time; Execute scales the per-image figures
// by the live batch size.
//
// The byte model counts activation traffic per image (reads of the step's
// input, writes of its output, and for convolutions the zero-padded frame
// the image is copied through, the column matrix written once — in packed
// form — and read once by the kernel, and the channel-major GEMM output
// written then regrouped; a direct step has its frame and, in place of the
// column matrix and the channel-major output, each output plane written and
// compacted into the output) plus the parameter bytes read once per
// execution; packed dense weights are the size of the weights. It is a
// traffic model, not a cache simulation: it is meant to rank steps by
// arithmetic intensity, exactly how the paper's §IV ledger attributes
// latency to stages.
func (p *Plan) annotateCosts() {
	const f32 = 4 // bytes per element
	for i := range p.steps {
		st := &p.steps[i]
		st.flopsPerImg = st.work.flops()
		switch st.op {
		case opDense:
			d := st.dense
			st.ioPerImg = f32 * int64(d.In+d.Out)
			st.fixedBytes = f32 * int64(d.In*d.Out+d.Out)
		case opConv:
			c := st.conv
			colRows, colCols := int64(c.Dims.ColRows()), int64(c.Dims.ColCols())
			outEls := int64(st.outW)
			frame := int64(c.Dims.InC) * int64(c.Dims.InH+2*c.Dims.Pad) * int64(c.Dims.InW+2*c.Dims.Pad)
			if st.direct {
				// input read + frame written and re-read + each plane
				// written, re-read and compacted into the output slot.
				st.ioPerImg = f32 * (int64(c.InSize()) + 2*frame + 3*outEls)
			} else {
				// input read + padded frame written and re-read + col
				// written and read + GEMM out written, re-read, and
				// regrouped into the output slot.
				if c.Dims.Pad == 0 {
					frame = 0
				}
				st.ioPerImg = f32 * (int64(c.InSize()) + 2*frame + 2*colRows*colCols + 3*outEls)
			}
			st.fixedBytes = f32 * (int64(c.OutC)*colRows + int64(c.OutC))
		case opPool:
			st.ioPerImg = f32 * int64(st.pool.InSize()+st.outW)
		}
	}
}

// planBuffer assigns every step its fixed buffer offsets: two ping-pong
// slots for the inter-step activations, or in a training plan a slot of its
// own for every step's output, plus one shared conv scratch region, all
// inside a single allocation. A training plan's conv scratch also holds
// the backward pass's row-major column matrix and channel-major gradient.
func (p *Plan) planBuffer(training bool) {
	var slotW [2]int
	convScratch := 0
	for i := range p.steps {
		st := &p.steps[i]
		slotW[i%2] = max(slotW[i%2], st.outW)
		if st.op == opConv {
			c := st.conv
			batchCols := p.batchCap * c.Dims.ColCols()
			st.colLen = tensor.Im2ColPackedLen(p.batchCap, c.Dims)
			gemmOut := c.OutC * batchCols
			if st.direct { // the frame and a group of planes, nothing else
				st.colLen, gemmOut = tensor.ConvDirectLen(c.Dims, c.OutC), 0
			}
			if training {
				st.colLen, gemmOut = max(st.colLen, c.Dims.ColRows()*batchCols), c.OutC*batchCols
			}
			convScratch = max(convScratch, st.colLen+gemmOut)
		}
	}
	slotOff := [2]int{0, p.batchCap * slotW[0]}
	convBase := p.batchCap * (slotW[0] + slotW[1])
	if training {
		convBase = 0
	}
	for i := range p.steps {
		st := &p.steps[i]
		st.outOff = slotOff[i%2]
		if training {
			st.outOff, convBase = convBase, convBase+p.batchCap*st.outW
		}
	}
	for i := range p.steps {
		if st := &p.steps[i]; st.op == opConv {
			st.colOff = convBase
			st.gemmOff = convBase + st.colLen
		}
	}
	p.buf = make([]float32, convBase+convScratch)
	p.outHdr = tensor.Tensor{Shape: make([]int, 2)}
}

// BatchCap returns the largest batch Execute accepts.
func (p *Plan) BatchCap() int { return p.batchCap }

// OutWidth returns the per-sample output width.
func (p *Plan) OutWidth() int { return p.outW }

// StepInfo describes one compiled step's static shape and cost model for
// introspection: the device model's costs, the profiling and energy tables,
// the /metrics per-step series, and tests. Work is the step's per-image work
// by op class and FLOPsPerImage is 2·(ConvMACs+DenseMACs) + PoolOps +
// ElemOps; BytesPerImage counts the step's activation traffic (including the
// conv frame, and the packed column matrix and regroup copies or the direct
// path's planes); FixedBytes is the parameter traffic paid once per execution
// regardless of batch size.
type StepInfo struct {
	Work
	Index         int
	Name          string
	Op            string // "dense", "conv" or "pool"
	OutWidth      int
	FLOPsPerImage int64
	BytesPerImage int64
	FixedBytes    int64
}

// Steps returns the compiled steps' static descriptions in execution order.
func (p *Plan) Steps() []StepInfo {
	ops := map[planOp]string{opDense: "dense", opConv: "conv", opPool: "pool"}
	out := make([]StepInfo, len(p.steps))
	for i := range p.steps {
		st := &p.steps[i]
		out[i] = StepInfo{
			Work:          st.work,
			Index:         i,
			Name:          st.name,
			Op:            ops[st.op],
			OutWidth:      st.outW,
			FLOPsPerImage: st.flopsPerImg,
			BytesPerImage: st.ioPerImg,
			FixedBytes:    st.fixedBytes,
		}
	}
	return out
}

// EnableTracing attaches a span recorder to the plan; nil detaches it. The
// recorder must belong to the same single goroutine that calls Execute
// (engine workers own one each). Call before serving — attachment interns
// names and allocates; Execute afterwards does not.
func (p *Plan) EnableTracing(rec *trace.Recorder) {
	p.rec = rec
	if p.nameIDs == nil {
		p.nameIDs = make([]trace.NameID, len(p.steps))
		for i := range p.steps {
			p.nameIDs[i] = trace.Intern(p.steps[i].name)
		}
	}
}

// SetTraceID stamps subsequent Execute calls' spans with a correlation ID
// (the engine uses its batch ID). Single-goroutine, like Execute.
func (p *Plan) SetTraceID(id uint64) { p.traceID = id }

// StepNames returns the fused step labels in execution order, e.g.
// ["conv1+relu1" "pool1" "fc1+relu" "fc2"], for introspection and tests.
func (p *Plan) StepNames() []string {
	names := make([]string, len(p.steps))
	for i := range p.steps {
		names[i] = p.steps[i].name
	}
	return names
}

// String summarizes the plan for logs.
func (p *Plan) String() string {
	return fmt.Sprintf("plan %s (cap %d, %d→%d): %s",
		p.name, p.batchCap, p.inW, p.outW, strings.Join(p.StepNames(), " | "))
}

// Execute runs the plan on x (n×inW, n ≤ BatchCap). When dst is nil the
// result is returned as a plan-owned view, valid only until the next
// Execute — copy out anything that must live longer. When dst is non-nil
// (n×outW, caller-owned) the final step writes straight into it and dst is
// returned. Once warm, Execute performs zero heap allocations and starts no
// goroutine.
func (p *Plan) Execute(dst, x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != p.inW {
		panic(fmt.Sprintf("nn: plan %s: input shape %v, want (N, %d)", p.name, x.Shape, p.inW))
	}
	n := x.Shape[0]
	if n > p.batchCap {
		panic(fmt.Sprintf("nn: plan %s: batch %d exceeds compiled capacity %d", p.name, n, p.batchCap))
	}
	if dst != nil && (len(dst.Shape) != 2 || dst.Shape[0] != n || dst.Shape[1] != p.outW) {
		panic(fmt.Sprintf("nn: plan %s: dst shape %v, want (%d, %d)", p.name, dst.Shape, n, p.outW))
	}
	cur := x.Data[:n*p.inW]
	last := len(p.steps) - 1 // Compile refuses a network with no step
	traced := p.rec != nil
	// The clock is read once per step boundary, k+1 times for k steps: step
	// i ends on the stamp step i+1 starts on, so the step spans tile the
	// plan's interval and their durations add up to it.
	var t0 int64
	if traced {
		t0 = trace.Now()
	}
	for i := range p.steps {
		st := &p.steps[i]
		out := p.buf[st.outOff : st.outOff+n*st.outW]
		if i == last && dst != nil {
			out = dst.Data[:n*st.outW]
		}
		switch st.op {
		case opDense:
			p.runDense(st, cur, out, n)
		case opConv:
			p.runConv(st, cur, out, n)
		case opPool:
			st.pool.poolInfer(cur, out, n)
		}
		if traced {
			t1 := trace.Now()
			p.rec.Emit(trace.Span{
				ID:    p.traceID,
				Kind:  trace.KindPlanStep,
				Name:  p.nameIDs[i],
				Step:  i,
				Batch: n,
				Start: t0,
				Dur:   t1 - t0,
				FLOPs: int64(n) * st.flopsPerImg,
				Bytes: int64(n)*st.ioPerImg + st.fixedBytes,
			})
			t0 = t1
		}
		cur = out
	}
	if dst != nil {
		return dst
	}
	return p.view(n, cur)
}

// MustCompile is Compile for a network built in code, which the compiler
// rejects only through a programming error: MustCompile panics with it.
func MustCompile(net *Sequential, batchCap int) *Plan {
	p, err := Compile(net, batchCap)
	if err != nil {
		panic(err)
	}
	return p
}

// view returns the plan-owned output header over data.
func (p *Plan) view(n int, data []float32) *tensor.Tensor {
	p.outHdr.Shape[0] = n
	p.outHdr.Shape[1] = p.outW
	p.outHdr.Data = data
	return &p.outHdr
}

// runDense executes y = act(xW + b) with the bias and activation fused into
// the GEMM epilogue. A batch that takes the blocked path multiplies by the
// layer's packed weights; a single row (the gemv, in the blocked kernel's
// order) or a batch on a kernel without FMA reads W itself.
func (p *Plan) runDense(st *planStep, in, out []float32, n int) {
	d := st.dense
	ep := tensor.Epilogue{Act: st.act, ColBias: d.B.Value.Data}
	if tensor.BlockedGEMM(n, d.In) {
		tensor.GEMMEpiloguePacked(in, d.packed(), out, n, ep, &p.pack)
	} else {
		tensor.GEMMEpilogue(in, d.W.Value.Data, out, n, d.In, d.Out, ep, &p.pack)
	}
}

// runConv executes the batched convolution step. A direct step runs the
// direct convolution at every batch size. Otherwise, where the product takes
// the blocked path: one im2col expansion of the whole batch straight into
// the kernel's packed layout, one GEMM whose epilogue applies the
// per-channel bias and activation in its write-back tail, and a pure regroup
// copy to sample-major layout. Below the gate: the same three stages over a
// row-major column matrix and the scalar GEMM.
func (p *Plan) runConv(st *planStep, in, out []float32, n int) {
	c := st.conv
	col := p.buf[st.colOff : st.colOff+st.colLen]
	ep := tensor.Epilogue{Act: st.act, RowBias: c.B.Value.Data}
	if st.direct {
		tensor.ConvDirect(col, in, n, c.Dims, c.W.Value.Data, c.OutC, ep, out)
		return
	}
	colRows, batchCols := c.Dims.ColRows(), n*c.Dims.ColCols()
	gemmOut := p.buf[st.gemmOff : st.gemmOff+c.OutC*batchCols]
	if tensor.BlockedGEMM(c.OutC, colRows) {
		b := tensor.Im2ColPacked(col, in, n, c.Dims)
		tensor.GEMMEpiloguePacked(c.W.Value.Data, &b, gemmOut, c.OutC, ep, &p.pack)
	} else {
		c.im2col(in, col, n)
		tensor.GEMMEpilogue(c.W.Value.Data, col, gemmOut, c.OutC, colRows, batchCols, ep, &p.pack)
	}
	c.scatter(gemmOut, out, n)
}
