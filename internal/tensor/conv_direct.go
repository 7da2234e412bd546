package tensor

import (
	"fmt"
	"math"
)

// Direct convolution: the path of a stride-1 convolution with fewer output
// channels than the micro-kernel has tile rows. Through im2col such a
// convolution writes a column matrix KH·KW times the size of its input to
// feed a GEMM whose mr-row tile is mostly padding. Here each image is copied
// into its zero-padded frame and every output plane is accumulated over the
// frame's flat positions instead: output pixel (oy, ox) sits at p = oy·fw +
// ox of a plane as wide as the frame, tap (c, ky, kx) reads frame[p +
// (c·fh+ky)·fw + kx], and the positions with ox ≥ OutW — a window wrapped
// round the frame's edge — are computed and dropped. Per output element that
// is the blocked path's arithmetic exactly: one fused multiply-add per tap
// in (c, ky, kx) order from a zero accumulator (a single depth block, hence
// the ColRows ≤ blockKC condition), the bias added, the activation applied —
// so a step that moves from im2col + blocked GEMM to this path keeps its
// bits.

// tapBlock is how many plane positions a tap-accumulate routine covers per
// block of accumulators; planes are rounded up to it and frames carry that
// much slack, so a routine never needs a partial block. tapGroup is how many
// output planes one pass over the frame accumulates: each tap's frame block
// is loaded once and multiplied into every plane of the group, which takes
// twelve accumulators under either ISA (three planes of 4 ZMM, or of 4 YMM
// over half a block) — three times the independent chains of one plane.
const (
	tapBlock = 64
	tapGroup = 3
)

// DirectConv reports whether ConvDirect serves the convolution of n images
// of geometry d into outC channels: the product would take the blocked path
// (BlockedGEMM(outC, ColRows, n·ColCols) — so every shape keeps its
// dispatch), in one depth block, on fewer rows than the active kernel's
// tile, at stride 1, and the active kernel comes with a tap-accumulate
// routine.
func DirectConv(outC int, d ConvDims, n int) bool {
	k := d.ColRows()
	return activeKernel.vec != vecNone && d.Stride == 1 && outC < activeKernel.mr &&
		k <= blockKC && useBlocked(outC, k, n*d.ColCols())
}

// planeLen is the flat extent of one output plane laid over the frame: the
// last output row stops at its last valid column.
func (d ConvDims) planeLen() int { return (d.OutH-1)*(d.InW+2*d.Pad) + d.OutW }

// ConvDirectLen returns the scratch, in float32s, ConvDirect needs for
// geometry d into outC channels: one frame with its slack and one rounded-up
// plane for each channel of a group.
func ConvDirectLen(d ConvDims, outC int) int {
	return d.InC*(d.InH+2*d.Pad)*(d.InW+2*d.Pad) + tapBlock + min(outC, tapGroup)*roundUp(d.planeLen(), tapBlock)
}

// ConvDirect convolves the n images of in (sample-major rows of
// InC·InH·InW) with the outC×ColRows row-major kernels w, applies ep (a
// RowBias per output channel and an activation; no ColBias) and writes out
// sample-major, n rows of outC·OutH·OutW. DirectConv(outC, d, n) must hold.
// scratch (ConvDirectLen(d, outC) float32s) is overwritten. w and the bias
// are read in place, nothing is packed. The channels are taken tapGroup at a
// time, the last group holding what is left.
func ConvDirect(scratch, in []float32, n int, d ConvDims, w []float32, outC int, ep Epilogue, out []float32) {
	if !DirectConv(outC, d, n) {
		panic(fmt.Sprintf("tensor: ConvDirect on a convolution the direct path does not serve (%+v, %d channels, %d images, kernel %s)", d, outC, n, activeKernel.name))
	}
	k, cols := d.ColRows(), d.ColCols()
	imgLen := d.InC * d.InH * d.InW
	if len(in) < n*imgLen || len(w) < outC*k || len(out) < n*outC*cols || len(scratch) < ConvDirectLen(d, outC) {
		panic(fmt.Sprintf("tensor: ConvDirect operand sizes in %d w %d out %d scratch %d too small for %d images of %+v into %d channels",
			len(in), len(w), len(out), len(scratch), n, d, outC))
	}
	if ep.ColBias != nil {
		panic("tensor: ConvDirect epilogue with a column bias")
	}
	ep.checkBias(outC, 0)

	fh, fw := d.InH+2*d.Pad, d.InW+2*d.Pad
	frameLen := d.InC * fh * fw
	frame := scratch[:frameLen+tapBlock]
	stride := roundUp(d.planeLen(), tapBlock)
	planes := scratch[frameLen+tapBlock:][:min(outC, tapGroup)*stride]
	if d.Pad > 0 {
		clear(frame[:frameLen]) // the border; every image overwrites the interior
	}
	var off [blockKC]int
	t := 0
	for c := 0; c < d.InC; c++ {
		for ky := 0; ky < d.KH; ky++ {
			for kx := 0; kx < d.KW; kx++ {
				off[t] = (c*fh+ky)*fw + kx
				t++
			}
		}
	}
	floor := float32(math.Inf(-1))
	if ep.Act == EpActReLU {
		floor = 0
	}
	var bias [tapGroup]float32
	for i := 0; i < n; i++ {
		img := in[i*imgLen : (i+1)*imgLen]
		if d.Pad == 0 {
			copy(frame, img)
		} else {
			d.fillFrame(frame, img)
		}
		for oc := 0; oc < outC; oc += tapGroup {
			g := min(tapGroup, outC-oc)
			for j := range g {
				// x + (−0) is x for every x, −0 included: the bias of a
				// channel that has none.
				bias[j] = float32(math.Copysign(0, -1))
				if ep.RowBias != nil {
					bias[j] = ep.RowBias[oc+j]
				}
			}
			tapConv(activeKernel.vec, planes, stride, frame, w[oc*k:(oc+g)*k], off[:k], bias[:g], floor)
			for j := range g {
				dst := out[(i*outC+oc+j)*cols:][:cols]
				compactRows(activeKernel.vec, dst, planes[j*stride:], d.OutH, d.OutW, fw)
				if ep.Act == EpActSigmoid {
					SigmoidSlice(dst, dst)
				}
			}
		}
	}
}
