//go:build amd64

package tensor

// Assembly bindings and CPU-feature detection for the x86 micro-kernels
// (gemm_amd64.s). The AVX2 kernel needs AVX2 (8-wide float32 YMM ops), FMA,
// and an OS that context-switches the YMM state; the AVX-512 kernel
// additionally needs AVX512F and OS-managed opmask/ZMM state. Each check
// runs once at init; unsupported kernels register as unavailable and
// selection falls back down the priority order.

//go:noescape
func fmaKernel8x8(kc int, ap, bp, acc *float32)

//go:noescape
func avx512Kernel8x16(kc int, ap, bp, acc *float32)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// archKernels registers the x86 assembly kernels. AVX-512 outranks AVX2:
// twice the tile width per identical instruction count, and none of the
// shipped kernels use enough ZMM pressure to trigger license-based
// downclocking concerns on modern parts.
func archKernels() []kernelDesc {
	return []kernelDesc{
		{name: "avx512-8x16", mr: 8, nr: 16, fma: true, available: hasAVX512(), priority: 20, fn: avx512Kernel, vec: vecAVX512},
		{name: "avx2-8x8", mr: 8, nr: 8, fma: true, available: hasAVX2FMA(), priority: 10, fn: fmaKernel, vec: vecAVX2},
	}
}

// fmaKernel adapts the AVX2 assembly micro-kernel to the registry calling
// shape.
func fmaKernel(kc int, ap, bp []float32, acc *[maxMR * maxNR]float32) {
	if kc == 0 {
		for i := range acc[:64] {
			acc[i] = 0
		}
		return
	}
	fmaKernel8x8(kc, &ap[0], &bp[0], &acc[0])
}

// avx512Kernel adapts the AVX-512 assembly micro-kernel to the registry
// calling shape.
func avx512Kernel(kc int, ap, bp []float32, acc *[maxMR * maxNR]float32) {
	if kc == 0 {
		for i := range acc {
			acc[i] = 0
		}
		return
	}
	avx512Kernel8x16(kc, &ap[0], &bp[0], &acc[0])
}

// hasAVX2FMA reports whether the CPU and OS support the AVX2 kernel:
// CPUID leaf 1 must advertise FMA, AVX, and OSXSAVE; XCR0 must show the OS
// saving XMM+YMM state; and CPUID leaf 7 must advertise AVX2.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&6 != 6 { // XMM (bit 1) and YMM (bit 2) state enabled
		return false
	}
	const avx2Bit = 1 << 5
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&avx2Bit != 0
}

// hasAVX512 reports whether the CPU and OS support the AVX-512 kernel: the
// AVX2/FMA baseline, CPUID leaf 7 AVX512F, and XCR0 showing the OS saving
// opmask (bit 5) and upper-ZMM (bits 6–7) state alongside XMM/YMM.
func hasAVX512() bool {
	if !hasAVX2FMA() {
		return false
	}
	const avx512fBit = 1 << 16
	_, ebx7, _, _ := cpuidex(7, 0)
	if ebx7&avx512fBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	return xcr0&0xe6 == 0xe6
}
