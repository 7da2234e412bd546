package tensor

import (
	"fmt"
	"os"
	"sort"
)

// The micro-kernel registry: blocked GEMM's innermost mr×nr tile kernel is
// pluggable by shape and architecture feature. Each platform file registers
// the kernels its CPU might support (archKernels, build-tagged); selection
// at init picks the highest-priority kernel the running CPU actually
// advertises, with the portable generic kernels as the universal fallback.
// The packing routines, the macro-kernel loops, and the worker-pool
// partitioning all read the active kernel's tile shape, so a new kernel
// needs only a registry entry — no changes to the blocked driver.

const (
	// maxMR/maxNR bound any registered kernel's tile — the mr×nr the
	// operands are packed for — sizing the accumulator scratch, one tile of
	// it per sliver a kernel call covers. 8×16 is the AVX-512 packing shape
	// (one ZMM row per tile row); its pair body fills two such tiles.
	maxMR = 8
	maxNR = 16
)

// microKernelFunc computes acc[0:mr*nr] = Asliver × Bsliver over packed
// panels: ap holds kc groups of mr A values, bp holds kc groups of nr B
// values, and the leading mr*nr of acc receive the row-major product tile
// with row stride nr (overwritten, not accumulated).
type microKernelFunc func(kc int, ap, bp []float32, acc *[maxMR * maxNR]float32)

// pairKernelFunc is a kernel's pair body: the microKernelFunc of one A
// sliver against two adjacent packed B slivers at once — bp holds the first
// sliver's kc groups of nr values, then the second's — into acc[0] and
// acc[1], each tile with the bits the single body gives its sliver. A 4-row
// pair body has the same shape and writes only rows 0–3 of each tile.
type pairKernelFunc func(kc int, ap, bp []float32, acc *[2][maxMR * maxNR]float32)

// vecISA names the instruction set of the vector loops that sit outside the
// micro-kernel — the write-back tail of a full-width tile (tileTail), the
// body of SigmoidSlice, the direct convolution's tap-accumulate kernel and row
// compaction (conv_direct.go), the bodies of gemvRow's multiply-add passes
// and the 2×2 max-pool body (MaxPool2) — for the registry entry whose CPUID
// gate covers them. vecNone: tiles are written back by writeTile and
// epilogueTile, SigmoidSlice is a loop over Sigmoid32, convolutions go
// through im2col, and gemvRow and MaxPool2 run their Go loops.
type vecISA uint8

const (
	vecNone vecISA = iota
	vecAVX2
	vecAVX512
)

// width is the number of float32 lanes of the instruction set's vectors —
// the nr of its micro-kernel's tile, the step of its gemv and sigmoid
// bodies; 0 for vecNone.
func (isa vecISA) width() int {
	switch isa {
	case vecAVX512:
		return 16
	case vecAVX2:
		return 8
	}
	return 0
}

// kernelDesc is one registered micro-kernel.
type kernelDesc struct {
	name      string // e.g. "avx512-8x16"; "generic-<mr>x<nr>" are the references
	mr, nr    int
	fma       bool // fused-multiply-add hardware kernel: packing pays off
	available bool // CPU (and OS state) support detected at init
	priority  int  // selection rank among available kernels; higher wins
	fn        microKernelFunc
	vec       vecISA // the vector loops available with this kernel
	// pair is the two-sliver body (AVX-512's 8×32). It is nil where the
	// registers cannot hold two tiles of accumulators beside the operands:
	// AVX2's 16 YMM registers, and NEON, whose 8×8 tile already takes 16
	// of its 32; the generic kernels have none.
	pair pairKernelFunc
	// pair4 is pair's first four rows (AVX-512's 4×32: half the
	// multiply-adds), for a sliver with at most four real rows — a short
	// batch's last. Nil where pair is, and read only where pair is not nil.
	pair4 pairKernelFunc
}

// kernelTable lists every registered kernel; activeKernel is the selected
// one. Both are fixed at init; SetGEMMKernelForTest swaps activeKernel for
// oracle tests (not safe while GEMMs run on other goroutines).
var (
	kernelTable  []kernelDesc
	activeKernel kernelDesc
)

// genericKernel builds the portable micro-kernel for an mr×nr tile — the
// fallback on CPUs without an assembly kernel and the reference every
// assembly kernel is oracle-tested against.
func genericKernel(mr, nr int) microKernelFunc {
	return func(kc int, ap, bp []float32, acc *[maxMR * maxNR]float32) {
		tile := acc[: mr*nr : mr*nr]
		for i := range tile {
			tile[i] = 0
		}
		for p := 0; p < kc; p++ {
			bv := bp[p*nr : p*nr+nr : p*nr+nr]
			av := ap[p*mr : p*mr+mr : p*mr+mr]
			for i, a := range av {
				row := tile[i*nr : i*nr+nr]
				for j := range row {
					row[j] += a * bv[j]
				}
			}
		}
	}
}

func init() {
	kernelTable = append(kernelTable,
		kernelDesc{name: "generic-8x8", mr: 8, nr: 8, available: true, priority: 1, fn: genericKernel(8, 8)},
		kernelDesc{name: "generic-8x16", mr: 8, nr: 16, available: true, priority: 0, fn: genericKernel(8, 16)},
	)
	kernelTable = append(kernelTable, archKernels()...)
	sort.SliceStable(kernelTable, func(i, j int) bool { return kernelTable[i].priority > kernelTable[j].priority })
	if name := os.Getenv("CBNET_GEMM_KERNEL"); name != "" {
		for _, k := range kernelTable {
			if k.name == name && k.available {
				activeKernel = k
				blockedEnabled = k.fma
				return
			}
		}
		fmt.Fprintf(os.Stderr, "tensor: CBNET_GEMM_KERNEL=%q not registered or not supported on this CPU; using default\n", name)
	}
	for _, k := range kernelTable {
		if k.available {
			activeKernel = k
			blockedEnabled = k.fma
			return
		}
	}
}

// KernelInfo describes one registered micro-kernel for introspection.
type KernelInfo struct {
	Name      string
	MR, NR    int
	FMA       bool // hardware fused-multiply-add kernel
	Available bool // usable on this CPU
}

// GEMMKernels lists the registered micro-kernels in selection-priority
// order, including ones this CPU cannot run (Available=false).
func GEMMKernels() []KernelInfo {
	out := make([]KernelInfo, len(kernelTable))
	for i, k := range kernelTable {
		out[i] = KernelInfo{Name: k.name, MR: k.mr, NR: k.nr, FMA: k.fma, Available: k.available}
	}
	return out
}

// GEMMKernelName reports the active micro-kernel's registry name.
func GEMMKernelName() string { return activeKernel.name }

// VectorWidth reports the float32 lanes of the active kernel's vector loops:
// 16 for AVX-512, 8 for AVX2, 0 where they are Go loops (the generic
// kernels, and every kernel off amd64). A package with vector bodies of its
// own picks them by it, so CBNET_GEMM_KERNEL and SetGEMMKernelForTest choose
// those bodies too, and the CPUID gate that admitted the kernel covers them.
func VectorWidth() int { return activeKernel.vec.width() }

// SetGEMMKernelForTest selects a registered, available kernel by name and
// returns the previously active kernel's name so tests can restore it. It
// does not touch the blocked-dispatch gate (SetBlockedKernelForTest); the
// two compose so oracles can run the blocked composition under any kernel.
// It panics on unknown or unavailable names and is not safe to call while
// GEMMs are running on other goroutines.
func SetGEMMKernelForTest(name string) string {
	prev := activeKernel.name
	for _, k := range kernelTable {
		if k.name == name {
			if !k.available {
				panic(fmt.Sprintf("tensor: kernel %q is not available on this CPU", name))
			}
			activeKernel = k
			return prev
		}
	}
	panic(fmt.Sprintf("tensor: kernel %q is not registered", name))
}
