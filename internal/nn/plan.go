package nn

import (
	"fmt"
	"strings"

	"cbnet/internal/tensor"
	"cbnet/internal/trace"
)

// The plan compiler: ahead-of-time inference compilation for Sequential
// networks. Compile runs shape inference once, drops the inference-identity
// ActivityRegularizer, fuses activations into their producing GEMM's
// epilogue (Conv2D+ReLU, Dense+ReLU, Dense+Sigmoid, Dense+Softmax, …),
// counts each step's work (Work: the one count of a network's work, which
// device.Cost prices), and assigns every intermediate a fixed offset in one
// preplanned buffer. Plan.Execute is then a flat loop over precompiled
// steps — no interface dispatch, no type assertions, and zero steady-state
// heap allocations. It is the only way a trained network runs outside
// training: Layer.Forward stays for the training loop and as the oracle the
// plan tests compare against, and a network with a layer type the compiler
// does not know is rejected at Compile, not served some other way.
//
// Buffer planning is ping-pong liveness: only one intermediate is live
// between consecutive steps, so step i reads slot i%2−1 and writes slot
// i%2, and each slot is sized to the widest tensor it ever holds at the
// plan's batch capacity. Convolution steps additionally share one scratch
// region — an im2col column matrix and a channel-major GEMM output, or for
// a direct step one padded frame and one output plane — sized to the
// largest conv step under the micro-kernel and blocked gate in force at
// Compile (tests that swap either do it before compiling). Everything lives
// in a single []float32 owned by the plan.
//
// What a step's GEMM reads as its B operand is bound to the micro-kernel
// ahead of the product wherever the product takes the blocked path
// (tensor.BlockedGEMM; single rows and small shapes read B row-major as
// before, so every shape keeps its dispatch and its bits). A dense step's
// weights are packed once, at Compile, into the kernel's sliver layout and
// kept on the layer, one copy for all plans of the network; Execute packs
// nothing constant. A conv step's column matrix is expanded straight into
// that layout, in the conv scratch region, and never exists row-major — and
// where the blocked product would fill fewer rows than the kernel's tile
// (tensor.DirectConv: conv1 and bconv, every conv of the lightweight
// classifier) there is no column matrix at all: the step accumulates each
// output plane over the image's padded frame, the blocked path's arithmetic
// tap for tap.
//
// A plan runs on the goroutine that calls Execute. Its blocked GEMMs never fan
// out; at tensor.SetGEMMThreads(1) — what engine.New sets — nothing beneath
// Execute starts a goroutine on any kernel, and at a wider setting only the
// scalar GEMM fallback (a host without an FMA kernel, a shape the blocked
// gate turns away) splits its rows.
//
// Weights contract: a plan serves the parameter values as of their last
// Param.Touch. Conv weights and all biases are read in place; packed dense
// weights are re-packed by the first Execute after a Touch (and after the
// active micro-kernel's sliver width changes), at the price of one integer
// compare per dense step per Execute. The optimisers and the checkpoint
// loader Touch what they write.

// planOp discriminates the precompiled step kinds.
type planOp uint8

const (
	// opDense is a fused dense stage: y = act(xW + b), with an optional
	// row softmax applied in the same step.
	opDense planOp = iota
	// opConv is a fused convolution stage: batched im2col, one GEMM with
	// the per-channel bias and activation in its write-back epilogue, and
	// a pure regroup copy to sample-major layout — or, for a step
	// tensor.DirectConv serves, the direct convolution with the same
	// epilogue.
	opConv
	// opPool is a max-pooling stage.
	opPool
	// opAct is a standalone elementwise activation or row softmax, used
	// only when an activation has no GEMM producer to fuse into.
	opAct
)

// planStep is one precompiled stage of a Plan. Steps reference their source
// layers (read-only at inference) rather than copies of their parameters;
// see the weights contract above.
type planStep struct {
	op      planOp
	name    string             // fused label, e.g. "conv1+relu1"
	act     tensor.EpilogueAct // fused activation (opDense/opConv/opAct)
	softmax bool               // row softmax after the step body

	outW   int
	outOff int // output offset into Plan.buf (the step's ping-pong slot)

	dense *Dense
	conv  *Conv2D
	pool  *MaxPool2D

	// conv-only scratch into Plan.buf: colOff/colLen hold the batch's
	// column matrix (packed for the blocked path, row-major otherwise) or
	// the direct path's frame and plane, gemmOff the channel-major GEMM
	// output.
	colOff, colLen, gemmOff int

	// Compile-time cost model: the per-sample work counted as the step is
	// lowered, and, filled by annotateCosts, its FLOPs, the activation
	// traffic per sample and the per-execution parameter traffic that is
	// independent of batch size. Spans and the meter derive achieved GFLOPS
	// and arithmetic intensity from these (see StepInfo for the model's
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
	ElemOps   int // bias adds and activation ops (actOps)
	Layers    int // source layers fused into the step: dispatch overhead
}

// flops is the work in floating-point operations: two per multiply-accumulate
// and one per every other op.
func (w Work) flops() int64 {
	return 2*int64(w.ConvMACs+w.DenseMACs) + int64(w.PoolOps+w.ElemOps)
}

// actOps is the elementwise work of an activation over width elements: one
// op per element (relu, sigmoid), four for a softmax (exp, max, sum, divide).
func actOps(softmax bool, width int) int {
	if softmax {
		return 4 * width
	}
	return width
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

	// Tracing, attached by EnableTracing. All nil/empty by default, in
	// which case Execute pays one branch per step and nothing else. Like
	// the plan's buffers, the recorder and traceID belong to the plan's
	// single executing goroutine; the StepStats are shared, atomic.
	rec     *trace.Recorder
	stats   []*trace.StepStats // parallel to steps; nil entries allowed
	nameIDs []trace.NameID     // parallel to steps
	traceID uint64             // correlation ID stamped on emitted spans
}

// Compile builds the static execution plan of net for batches of up to
// batchCap rows. It fails on non-positive capacities, on layer types it has
// no step for, and on networks whose input width cannot be inferred (no
// shape-bearing layer).
func Compile(net *Sequential, batchCap int) (*Plan, error) {
	if net == nil {
		return nil, fmt.Errorf("nn: Compile of nil network")
	}
	if batchCap <= 0 {
		return nil, fmt.Errorf("nn: Compile %s: non-positive batch capacity %d", net.Name(), batchCap)
	}
	p := &Plan{name: net.Name(), batchCap: batchCap, inW: -1}
	width := -1

	// fuse tries to fold an activation into the preceding GEMM step's
	// epilogue; it fails when there is no preceding step or that step
	// already carries an activation.
	fuse := func(act tensor.EpilogueAct, softmax bool, name string) bool {
		if len(p.steps) == 0 {
			return false
		}
		st := &p.steps[len(p.steps)-1]
		if st.act != tensor.EpActNone || st.softmax {
			return false
		}
		switch {
		case st.op == opDense:
		case st.op == opConv && !softmax:
			// A conv's softmax spans each sample's full channel×spatial
			// row, which the channel-major epilogue cannot see; only
			// elementwise activations fuse into conv steps.
		default:
			return false
		}
		st.act = act
		st.softmax = softmax
		st.name += "+" + name
		st.work.ElemOps += actOps(softmax, st.outW)
		st.work.Layers++
		return true
	}
	// standalone appends an unfused activation step.
	standalone := func(act tensor.EpilogueAct, softmax bool, name string) error {
		if width < 0 {
			return fmt.Errorf("nn: Compile %s: activation %s before any shape-bearing layer", net.Name(), name)
		}
		p.steps = append(p.steps, planStep{op: opAct, name: name, act: act, softmax: softmax, outW: width,
			work: Work{ElemOps: actOps(softmax, width), Layers: 1}})
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
			// Identity at inference: elided, no work.
		case *Dense:
			if err := shaped(l.Name(), l.In); err != nil {
				return nil, err
			}
			p.steps = append(p.steps, planStep{op: opDense, name: l.Name(), dense: l, outW: l.Out,
				work: Work{DenseMACs: l.In * l.Out, ElemOps: l.Out, Layers: 1}}) // + bias adds
			width = l.Out
			if tensor.BlockedGEMM(batchCap, l.In, l.Out) {
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
				work: Work{ConvMACs: out * l.Dims.ColRows(), ElemOps: out, Layers: 1}}) // + bias adds
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
			if !fuse(tensor.EpActReLU, false, l.Name()) {
				if err := standalone(tensor.EpActReLU, false, l.Name()); err != nil {
					return nil, err
				}
			}
		case *Sigmoid:
			if !fuse(tensor.EpActSigmoid, false, l.Name()) {
				if err := standalone(tensor.EpActSigmoid, false, l.Name()); err != nil {
					return nil, err
				}
			}
		case *Softmax:
			if !fuse(tensor.EpActNone, true, l.Name()) {
				if err := standalone(tensor.EpActNone, true, l.Name()); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("nn: Compile %s: no plan step for layer %s (%T): add one to Compile, inference runs on plans only", net.Name(), l.Name(), l)
		}
	}
	if width < 0 {
		return nil, fmt.Errorf("nn: Compile %s: no shape-bearing layer to infer the input width from", net.Name())
	}
	p.outW = width
	p.planBuffer()
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
			if tensor.DirectConv(c.OutC, c.Dims, p.batchCap) {
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
		case opAct:
			st.ioPerImg = f32 * 2 * int64(st.outW)
		}
	}
}

// planBuffer assigns every step its fixed buffer offsets: two ping-pong
// slots for the inter-step activations plus one shared conv scratch region,
// all inside a single allocation.
func (p *Plan) planBuffer() {
	var slotW [2]int
	convScratch := 0
	for i := range p.steps {
		st := &p.steps[i]
		if st.outW > slotW[i%2] {
			slotW[i%2] = st.outW
		}
		if st.op == opConv {
			c := st.conv
			colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
			gemmOut := c.OutC * p.batchCap * colCols
			st.colLen = tensor.Im2ColPackedLen(p.batchCap, c.Dims)
			if tensor.DirectConv(c.OutC, c.Dims, p.batchCap) {
				// The frame and one plane; no batch writes a packed column
				// matrix. Batches below the blocked gate still expand a
				// row-major one for the scalar GEMM.
				sub := 0
				for sub < p.batchCap && !tensor.BlockedGEMM(c.OutC, colRows, (sub+1)*colCols) {
					sub++
				}
				st.colLen = max(tensor.ConvDirectLen(c.Dims, c.OutC), colRows*sub*colCols)
				gemmOut = c.OutC * sub * colCols
			}
			if need := st.colLen + gemmOut; need > convScratch {
				convScratch = need
			}
		}
	}
	slotOff := [2]int{0, p.batchCap * slotW[0]}
	convBase := p.batchCap * (slotW[0] + slotW[1])
	for i := range p.steps {
		st := &p.steps[i]
		st.outOff = slotOff[i%2]
		if st.op == opConv {
			st.colOff = convBase
			st.gemmOff = convBase + st.colLen
		}
	}
	p.buf = make([]float32, convBase+convScratch)
	p.outHdr = tensor.Tensor{Shape: make([]int, 2)}
}

// Name returns the compiled network's label.
func (p *Plan) Name() string { return p.name }

// BatchCap returns the largest batch Execute accepts.
func (p *Plan) BatchCap() int { return p.batchCap }

// InWidth returns the per-sample input width.
func (p *Plan) InWidth() int { return p.inW }

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
	Op            string // "dense", "conv", "pool", "act"
	OutWidth      int
	FLOPsPerImage int64
	BytesPerImage int64
	FixedBytes    int64
}

// Steps returns the compiled steps' static descriptions in execution order.
func (p *Plan) Steps() []StepInfo {
	ops := map[planOp]string{opDense: "dense", opConv: "conv", opPool: "pool", opAct: "act"}
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

// EnableTracing attaches a span recorder and/or a cumulative meter to the
// plan. Either may be nil. The recorder must belong to the same single
// goroutine that calls Execute (engine workers own one each); meter series
// are shared and atomic, so plans compiled for the same network on
// different workers fold into one per-step series. scope keys those series —
// typically the engine route ("easy"/"hard") the plan executes under, so the
// same network serving two routes yields two distinguishable series; pass ""
// outside an engine. Call before serving — attachment interns names and
// allocates; Execute afterwards does not.
func (p *Plan) EnableTracing(rec *trace.Recorder, m *trace.Meter, scope string) {
	p.rec = rec
	if p.nameIDs == nil {
		p.nameIDs = make([]trace.NameID, len(p.steps))
		for i := range p.steps {
			p.nameIDs[i] = trace.Intern(p.steps[i].name)
		}
	}
	if m != nil {
		p.stats = make([]*trace.StepStats, len(p.steps))
		for i := range p.steps {
			st := &p.steps[i]
			p.stats[i] = m.Step(scope, p.name, st.name, i, st.flopsPerImg, st.ioPerImg, st.fixedBytes)
		}
	}
}

// SetTraceID stamps subsequent Execute calls' spans with a correlation ID
// (the engine uses its batch ID). Single-goroutine, like Execute.
func (p *Plan) SetTraceID(id uint64) { p.traceID = id }

// StepNames returns the fused step labels in execution order, e.g.
// ["conv1+relu1" "pool1" "fc1+relu" "fc2+sm"], for introspection and tests.
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
// returned. Once warm, Execute performs zero heap allocations and, at
// tensor.SetGEMMThreads(1), starts no goroutine.
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
	if len(p.steps) == 0 {
		if dst != nil {
			copy(dst.Data, cur)
			return dst
		}
		return p.view(n, cur)
	}
	last := len(p.steps) - 1
	traced := p.rec != nil || p.stats != nil
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
			st.pool.poolInfer(cur, out, 0, n)
		case opAct:
			runAct(st, cur, out, n)
		}
		if traced {
			t1 := trace.Now()
			dur := t1 - t0
			if p.stats != nil {
				p.stats[i].Observe(dur, n)
			}
			if p.rec != nil {
				p.rec.Emit(trace.Span{
					ID:    p.traceID,
					Kind:  trace.KindPlanStep,
					Name:  p.nameIDs[i],
					Step:  i,
					Batch: n,
					Start: t0,
					Dur:   dur,
					FLOPs: int64(n) * st.flopsPerImg,
					Bytes: int64(n)*st.ioPerImg + st.fixedBytes,
				})
			}
			t0 = t1
		}
		cur = out
	}
	if dst != nil {
		return dst
	}
	return p.view(n, cur)
}

// view returns the plan-owned output header over data.
func (p *Plan) view(n int, data []float32) *tensor.Tensor {
	p.outHdr.Shape[0] = n
	p.outHdr.Shape[1] = p.outW
	p.outHdr.Data = data
	return &p.outHdr
}

// runDense executes y = act(xW + b) with the bias and activation fused into
// the GEMM epilogue, plus the optional fused row softmax. A batch that takes
// the blocked path multiplies by the layer's packed weights; a single row
// (gemv) or a shape below the blocked gate reads W itself.
func (p *Plan) runDense(st *planStep, in, out []float32, n int) {
	d := st.dense
	ep := tensor.Epilogue{Act: st.act, ColBias: d.B.Value.Data}
	if tensor.BlockedGEMM(n, d.In, d.Out) {
		tensor.GEMMEpiloguePacked(in, d.packed(), out, n, ep, &p.pack)
	} else {
		tensor.GEMMEpilogue(in, d.W.Value.Data, out, n, d.In, d.Out, ep, &p.pack)
	}
	if st.softmax {
		for i := 0; i < n; i++ {
			SoftmaxRow(out[i*d.Out : (i+1)*d.Out])
		}
	}
}

// runConv executes the batched convolution step. Where the product takes the
// blocked path: the direct convolution if the step is one tensor.DirectConv
// serves, otherwise one im2col expansion of the whole batch straight into
// the kernel's packed layout, one GEMM whose epilogue applies the
// per-channel bias and activation in its write-back tail, and a pure regroup
// copy to sample-major layout. Below the gate: the same three stages over a
// row-major column matrix and the scalar GEMM.
func (p *Plan) runConv(st *planStep, in, out []float32, n int) {
	c := st.conv
	colRows, colCols := c.Dims.ColRows(), c.Dims.ColCols()
	batchCols := n * colCols
	col := p.buf[st.colOff : st.colOff+st.colLen]
	ep := tensor.Epilogue{Act: st.act, RowBias: c.B.Value.Data}
	if tensor.DirectConv(c.OutC, c.Dims, n) {
		tensor.ConvDirect(col, in, n, c.Dims, c.W.Value.Data, c.OutC, ep, out)
		return
	}
	gemmOut := p.buf[st.gemmOff : st.gemmOff+c.OutC*batchCols]
	if tensor.BlockedGEMM(c.OutC, colRows, batchCols) {
		b := tensor.Im2ColPacked(col, in, n, c.Dims)
		tensor.GEMMEpiloguePacked(c.W.Value.Data, &b, gemmOut, c.OutC, ep, &p.pack)
	} else {
		c.im2colRange(in, col, batchCols, 0, n)
		tensor.GEMMEpilogue(c.W.Value.Data, col, gemmOut, c.OutC, colRows, batchCols, ep, &p.pack)
	}
	c.scatterRange(gemmOut, out, colCols, batchCols, 0, n)
}

// runAct executes a standalone activation step (copy-apply into the output
// slot, preserving the ping-pong discipline).
func runAct(st *planStep, in, out []float32, n int) {
	switch st.act {
	case tensor.EpActReLU:
		for i, v := range in {
			if v < 0 {
				v = 0
			}
			out[i] = v
		}
	case tensor.EpActSigmoid:
		tensor.SigmoidSlice(out[:len(in)], in)
	default:
		copy(out, in)
	}
	if st.softmax {
		for i := 0; i < n; i++ {
			SoftmaxRow(out[i*st.outW : (i+1)*st.outW])
		}
	}
}
