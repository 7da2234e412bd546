package tensor

import "sync"

// Cache-blocked GEMM in the BLIS/GotoBLAS style.
//
// The operand matrices are tiled into panels sized for the cache hierarchy
// and repacked into contiguous, micro-kernel-ready buffers:
//
//	for jc over n by blockNC:          // B panel column block (L3)
//	  for pc over k by blockKC:        // depth block (packed B panel in L2)
//	    pack B[pc:pc+kc, jc:jc+nc] into nr-column slivers
//	    for ic over m by blockMC:      // A panel row block (packed slivers in L1/L2)
//	      pack A[ic:ic+mc, pc:pc+kc] into mr-row slivers
//	      for jr, ir over the panel:   // register-tiled micro-kernel
//	        acc[mr×nr] = Asliver × Bsliver
//	        C[ic+ir, jc+jr] = acc, or += acc  // the tile's write-back
//
// The mr×nr micro-kernel keeps the full accumulator tile in registers and
// streams both packed slivers sequentially. Its tile shape comes from the
// kernel registry (gemm_kernels.go): 8×8 YMM on AVX2/FMA, 8×16 ZMM on
// AVX-512, 8×8 over NEON quads on arm64, with the portable generic kernel
// as the universal fallback and oracle reference. A kernel with a pair body
// (AVX-512's: an 8×32 register tile, 16 ZMM accumulators) takes the jr loop
// two slivers at a time while two remain, and an odd last sliver through
// its single body; each 8×nr half is written back as a tile of its own, so
// pairing changes no bit. A row sliver with at most four real rows — the
// last of a batch of 9–12, 17–20, … or the only one of a batch of 2–4 —
// takes the pair body's first four rows instead (pair4: 8 accumulators, half
// the multiply-adds), which are the same operations on the same operands.
//
// A blocked GEMM runs on the goroutine that calls it, one A row block after
// another against the packed B panel: parallelism is the caller's business —
// the engine's workers across batches in serving; training runs on one
// goroutine — and nothing fans out beneath it.
//
// Packing uses zero padding up to the mr/nr multiple, so the micro-kernel
// never sees a partial tile; the write-back handles ragged C edges. A
// row-major A sliver, short or full, is transposed by the vector body
// (packRows8) where the kernel has one, its missing rows as zeros.
//
// The write-back stores the tile over C, or adds it to C where the product
// accumulates or past the first depth block: the driver takes no other
// scaling (GEMM sends that to gemmNaive). It has two forms that produce the
// same bits. writeTile and epilogueTile are the Go loops, the reference, and
// what tiles with ragged columns or both biases and hosts without a vector
// ISA run. A tile of full nr width — however many of its rows are real —
// goes through tileTail instead: one vector routine of the active kernel's
// vecISA that takes the real accumulator rows through C's addition, the bias
// and the relu in the Go loops' order and stores each row once, on every
// depth block.
const (
	blockKC = 256  // depth block: an mr×kc A sliver (8 KB) stays L1-resident
	blockMC = 128  // row block: the packed A panel (mc×kc ≈ 128 KB) fits L2
	blockNC = 2048 // col block: the packed B panel (kc×nc ≈ 2 MB) fits L3
)

// blockedEnabled reports whether the blocked path beats the axpy fallback on
// this machine. It is true only when a fused-multiply-add micro-kernel is
// available (see the kernel registry): the generic micro-kernel has the same
// scalar ALU ceiling as the axpy loop, so packing would be pure overhead.
// Tests flip it to pin down both dispatch paths.
var blockedEnabled = false

// BlockedKernelEnabled reports whether GEMM dispatch is using the blocked
// FMA micro-kernel on this machine (a hardware kernel detected at init).
func BlockedKernelEnabled() bool { return blockedEnabled }

// SetBlockedKernelForTest overrides the blocked-kernel dispatch gate and
// returns the previous setting. It exists for cross-package parity oracles
// that want to compare two compositions of the same scalar kernels without
// the (separately oracle-tested) blocked-vs-axpy rounding differences; the
// portable micro-kernel keeps the blocked path correct when forced on. Not
// safe to flip while GEMMs are running on other goroutines.
func SetBlockedKernelForTest(enabled bool) bool {
	prev := blockedEnabled
	blockedEnabled = enabled
	return prev
}

// gemmBuf is the reusable packing scratch for one goroutine's share of a
// blocked GEMM. Buffers grow to the block maxima on first use and are then
// recycled — through gemmBufPool for ad-hoc callers, held for life by
// PackScratch owners — so steady-state GEMM calls allocate nothing. The
// accumulator holds two of the largest registered tiles: what a pair body
// fills.
type gemmBuf struct {
	ap  []float32
	bp  []float32
	acc [2][maxMR * maxNR]float32
}

var gemmBufPool = sync.Pool{New: func() any { return new(gemmBuf) }}

// PackScratch owns the packing panels of blocked GEMM calls routed through
// it. The shared gemmBufPool already recycles panels between calls, but
// sync.Pool contents are dropped at every GC cycle — and training loops
// allocate enough elsewhere to GC constantly, so backward passes kept
// regrowing panels. A PackScratch held by the caller (one per goroutine; the
// training layers and the plans keep one each) makes the reuse
// deterministic. A B panel is as deep as the product, up to blockKC. The
// zero value is ready to use.
type PackScratch struct {
	buf gemmBuf
}

// PanelBytes returns the current packing-panel footprint in bytes, for
// capacity introspection in tests. Products whose B operand is a PackedB
// never grow the B panel.
func (ps *PackScratch) PanelBytes() int {
	return 4 * (cap(ps.buf.ap) + cap(ps.buf.bp))
}

func (g *gemmBuf) ensureA(n int) []float32 {
	if cap(g.ap) < n {
		g.ap = make([]float32, n)
	}
	g.ap = g.ap[:n]
	return g.ap
}

func (g *gemmBuf) ensureB(n int) []float32 {
	if cap(g.bp) < n {
		g.bp = make([]float32, n)
	}
	g.bp = g.bp[:n]
	return g.bp
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// gemmPanel carries one (jc, pc) panel's full geometry: operand views, the
// shared packed B panel, and the kernel in use.
type gemmPanel struct {
	a          []float32
	ars, acs   int
	bp         []float32 // packed B panel for (jc, pc), shared read-only
	c          []float32
	m, n       int
	jc, pc     int
	kc, nc     int
	accumulate bool     // add the tiles into C: past pc=0, or the caller's choice
	ep         Epilogue // the tiles' epilogue: the caller's, less its sigmoid
	applyEp    bool     // final depth block: run ep on write-back
	sigmoid    bool     // final depth block: sweep the finished rows with SigmoidSlice
	tail       int      // tileTail flags for this panel's full-width tiles; −1: they take the Go loops
	kern       kernelDesc
}

// tileTail's flags: which of its stages a tile's write-back runs.
const (
	tailAccumulate = 1 << iota // add C; without it C is not read
	tailColBias                // add bias[j] to column j of the tile
	tailRowBias                // add bias[i] to row i of the tile
	tailReLU                   // floor at 0; −0 and NaN pass
)

// tailFlags returns the tileTail flags that stand for writeTile (+
// epilogueTile when applyEp) on a full-width tile of this panel, or −1 when the
// active kernel has no vector tail or the epilogue has both biases.
func (pn *gemmPanel) tailFlags() int {
	if pn.kern.vec == vecNone {
		return -1
	}
	flags := 0
	if pn.accumulate {
		flags |= tailAccumulate
	}
	if !pn.applyEp {
		return flags
	}
	switch {
	case pn.ep.RowBias != nil && pn.ep.ColBias != nil:
		return -1
	case pn.ep.ColBias != nil:
		flags |= tailColBias
	case pn.ep.RowBias != nil:
		flags |= tailRowBias
	}
	if pn.ep.Act == EpActReLU {
		flags |= tailReLU
	}
	return flags
}

// gemmBlocked computes C = op(A)·op(B), plus C when accumulate, for
// row-major C (m×n). The operands are addressed through explicit strides —
// element op(A)[i,p] lives at a[i*ars+p*acs] and op(B)[p,j] at
// b[p*brs+j*bcs] — so the same driver serves the plain, transposed-A, and
// transposed-B products without materializing a transpose.
//
// A non-identity ep is applied on the final depth block: bias and relu to
// each C tile as part of its write-back, a sigmoid to the rows of each
// finished row block (blockSerial). A non-nil ps
// supplies the caller-owned packing panels; otherwise they come from the
// shared pool. A non-nil pb is op(B) already in packed form
// (gemm_packed.go): its panels are used as they are, b and its strides are
// ignored, and no B panel is packed or grown.
func gemmBlocked(a []float32, ars, acs int, b []float32, brs, bcs int, c []float32, m, k, n int, accumulate bool, ep Epilogue, ps *PackScratch, pb *PackedB) {
	var db *gemmBuf
	if ps != nil {
		db = &ps.buf
	} else {
		pooled := gemmBufPool.Get().(*gemmBuf)
		defer gemmBufPool.Put(pooled)
		db = pooled
	}
	kern := activeKernel
	sigmoid := ep.Act == EpActSigmoid
	if sigmoid {
		ep.Act = EpActNone
	}
	pn := gemmPanel{a: a, ars: ars, acs: acs, c: c, m: m, n: n, ep: ep, kern: kern}
	for jc := 0; jc < n; jc += blockNC {
		nc := min(blockNC, n-jc)
		var bp []float32
		if pb == nil {
			bp = db.ensureB(min(blockKC, k) * roundUp(nc, kern.nr))
		}
		for pc := 0; pc < k; pc += blockKC {
			kc := min(blockKC, k-pc)
			pn.jc, pn.pc, pn.kc, pn.nc = jc, pc, kc, nc
			pn.accumulate = accumulate || pc > 0
			last := pc+kc == k
			pn.applyEp, pn.sigmoid = last && !ep.isIdentity(), last && sigmoid
			pn.tail = pn.tailFlags()
			if pb != nil {
				pn.bp = pb.panel(jc, pc, kc, nc)
			} else {
				packB(b, brs, bcs, pc, jc, kc, nc, kern.nr, bp)
				pn.bp = bp
			}
			for ic := 0; ic < m; ic += blockMC {
				pn.blockSerial(db, ic)
			}
		}
	}
}

// blockSerial packs the A row block starting at row ic into mr-row slivers
// and runs the micro-kernel over its tile grid against every packed B sliver
// of the panel — one packed block reused across the full JR range, two
// slivers per call where the kernel has a pair body, through its 4-row body
// for a row sliver with at most four real rows. A sigmoid is elementwise,
// so it waits for the block: one SigmoidSlice per finished row, in long
// vector runs, instead of nr elements at a time per tile.
func (pn *gemmPanel) blockSerial(wb *gemmBuf, ic int) {
	mr, nr := pn.kern.mr, pn.kern.nr
	mc := min(blockMC, pn.m-ic)
	ap := wb.ensureA(roundUp(mc, mr) * pn.kc)
	packA(pn.kern.vec, pn.a, pn.ars, pn.acs, ic, pn.pc, mc, pn.kc, mr, ap)
	for jr := 0; jr < pn.nc; {
		slivers := 1
		if pn.kern.pair != nil && jr+nr < pn.nc {
			slivers = 2
		}
		bs := pn.bp[(jr/nr)*pn.kc*nr:][:slivers*pn.kc*nr]
		for ir := 0; ir < mc; ir += mr {
			as := ap[(ir/mr)*pn.kc*mr:][:pn.kc*mr]
			rows := min(mr, mc-ir)
			switch {
			case slivers == 1:
				pn.kern.fn(pn.kc, as, bs, &wb.acc[0])
			case rows <= 4 && pn.kern.pair4 != nil:
				pn.kern.pair4(pn.kc, as, bs, &wb.acc)
			default:
				pn.kern.pair(pn.kc, as, bs, &wb.acc)
			}
			for h := range slivers {
				pn.writeBack(&wb.acc[h], ic+ir, pn.jc+jr+h*nr, rows)
			}
		}
		jr += slivers * nr
	}
	if pn.sigmoid {
		for i := ic; i < ic+mc; i++ {
			row := pn.c[i*pn.n+pn.jc:][:pn.nc]
			SigmoidSlice(row, row)
		}
	}
}

// writeBack folds one mr×nr accumulator tile into C at (i0, j0), mEff of
// its rows real, with the bias and relu on the final depth block: tileTail
// for a full-width tile of a panel that has one, writeTile and epilogueTile
// otherwise.
func (pn *gemmPanel) writeBack(acc *[maxMR * maxNR]float32, i0, j0, mEff int) {
	nr := pn.kern.nr
	nEff := min(nr, pn.jc+pn.nc-j0)
	if pn.tail >= 0 && nEff == nr {
		var bias []float32
		switch {
		case pn.tail&tailColBias != 0:
			bias = pn.ep.ColBias[j0:]
		case pn.tail&tailRowBias != 0:
			bias = pn.ep.RowBias[i0 : i0+mEff]
		}
		tileTail(pn.kern.vec, pn.c[i0*pn.n+j0:], pn.n, acc, bias, pn.tail, mEff)
		return
	}
	writeTile(pn.c, pn.n, i0, j0, mEff, nEff, nr, acc, pn.accumulate)
	if pn.applyEp {
		epilogueTile(pn.c, pn.n, i0, j0, mEff, nEff, &pn.ep)
	}
}

// packA copies the mc×kc block of op(A) at (ic, pc) into mr-row slivers:
// sliver s holds, for each depth p, the mr consecutive values
// op(A)[ic+s*mr .. ic+s*mr+mr, pc+p], zero-padded past the last row.
func packA(isa vecISA, a []float32, ars, acs, ic, pc, mc, kc, mr int, dst []float32) {
	di := 0
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		sliver := dst[di : di+kc*mr]
		if acs == 1 {
			// Row-major A: an eight-row sliver, short or full, is transposed
			// 8×8 blocks at a time by the vector body (packRows8) where the
			// kernel has one, a short sliver's padding lanes zeroed with
			// them; what it leaves — the last kc mod 8 depths, every sliver
			// on other hosts — reads each source row sequentially, scatters
			// into the sliver's strided lanes and zeroes the padding lanes.
			p0 := 0
			if mr == 8 {
				p0 = packRows8(isa, sliver, a[(ic+ir)*ars+pc:], ars, kc, rows)
			}
			for ii := 0; ii < rows; ii++ {
				row := a[(ic+ir+ii)*ars+pc:][:kc]
				for p := p0; p < kc; p++ {
					sliver[p*mr+ii] = row[p]
				}
			}
			if rows < mr {
				for p := p0; p < kc; p++ {
					clear(sliver[p*mr+rows : p*mr+mr])
				}
			}
		} else {
			for p := 0; p < kc; p++ {
				src := (ic+ir)*ars + (pc+p)*acs
				grp := sliver[p*mr : p*mr+mr]
				for ii := 0; ii < rows; ii++ {
					grp[ii] = a[src+ii*ars]
				}
				for ii := rows; ii < mr; ii++ {
					grp[ii] = 0
				}
			}
		}
		di += kc * mr
	}
}

// packB copies the kc×nc block of op(B) at (pc, jc) into nr-column slivers:
// sliver t holds, for each depth p, the nr consecutive values
// op(B)[pc+p, jc+t*nr .. jc+t*nr+nr], zero-padded past the last column.
func packB(b []float32, brs, bcs, pc, jc, kc, nc, nr int, dst []float32) {
	di := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		sliver := dst[di : di+kc*nr]
		if bcs == 1 && cols == nr {
			for p := 0; p < kc; p++ {
				copy(sliver[p*nr:p*nr+nr], b[(pc+p)*brs+jc+jr:])
			}
		} else {
			for p := 0; p < kc; p++ {
				src := (pc+p)*brs + (jc+jr)*bcs
				grp := sliver[p*nr : p*nr+nr]
				for jj := 0; jj < cols; jj++ {
					grp[jj] = b[src+jj*bcs]
				}
				for jj := cols; jj < nr; jj++ {
					grp[jj] = 0
				}
			}
		}
		di += kc * nr
	}
}

// writeTile folds one micro-kernel product tile into C:
// C[i0:i0+mEff, j0:j0+nEff] = acc, or += acc when accumulate, where acc rows
// have stride accStride (the kernel's nr). A store does not read C, so it is
// safe on uninitialized (scratch) output buffers.
func writeTile(c []float32, ldc, i0, j0, mEff, nEff, accStride int, acc *[maxMR * maxNR]float32, accumulate bool) {
	for i := 0; i < mEff; i++ {
		crow := c[(i0+i)*ldc+j0:][:nEff]
		arow := acc[i*accStride : i*accStride+nEff]
		if !accumulate {
			copy(crow, arow)
			continue
		}
		for j, v := range arow {
			crow[j] += v
		}
	}
}
