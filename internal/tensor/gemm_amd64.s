//go:build amd64

#include "textflag.h"

// func fmaKernel8x8(kc int, ap, bp, acc *float32)
//
// The 8×8 micro-kernel of the blocked GEMM: acc[8][8] = Asliver × Bsliver
// over packed panels (ap: kc groups of 8 A values, bp: kc groups of 8 B
// values). Eight YMM registers hold the full accumulator tile; each k step
// is one 8-wide B load, eight scalar broadcasts from A, and eight fused
// multiply-adds — 128 flops per 9 loads.
TEXT ·fmaKernel8x8(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    store

loop:
	VMOVUPS      (DI), Y8
	VBROADCASTSS (SI), Y9
	VBROADCASTSS 4(SI), Y10
	VFMADD231PS  Y8, Y9, Y0
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS 8(SI), Y11
	VBROADCASTSS 12(SI), Y12
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS 16(SI), Y9
	VBROADCASTSS 20(SI), Y10
	VFMADD231PS  Y8, Y9, Y4
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS 24(SI), Y11
	VBROADCASTSS 28(SI), Y12
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          loop

store:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET

// func avx512Kernel8x16(kc int, ap, bp, acc *float32)
//
// The 8×16 micro-kernel: acc[8][16] = Asliver × Bsliver over packed panels
// (ap: kc groups of 8 A values, bp: kc groups of 16 B values). Eight ZMM
// registers hold the full accumulator tile; each k step is one 16-wide B
// load, eight scalar broadcasts from A, and eight fused multiply-adds —
// 256 flops per 9 loads, double the AVX2 kernel's tile at the same
// instruction count.
TEXT ·avx512Kernel8x16(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

	TESTQ CX, CX
	JZ    zstore

zloop:
	VMOVUPS      (DI), Z8
	VBROADCASTSS (SI), Z9
	VBROADCASTSS 4(SI), Z10
	VFMADD231PS  Z8, Z9, Z0
	VFMADD231PS  Z8, Z10, Z1
	VBROADCASTSS 8(SI), Z11
	VBROADCASTSS 12(SI), Z12
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z8, Z12, Z3
	VBROADCASTSS 16(SI), Z9
	VBROADCASTSS 20(SI), Z10
	VFMADD231PS  Z8, Z9, Z4
	VFMADD231PS  Z8, Z10, Z5
	VBROADCASTSS 24(SI), Z11
	VBROADCASTSS 28(SI), Z12
	VFMADD231PS  Z8, Z11, Z6
	VFMADD231PS  Z8, Z12, Z7
	ADDQ         $32, SI
	ADDQ         $64, DI
	DECQ         CX
	JNZ          zloop

zstore:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z4, 256(DX)
	VMOVUPS Z5, 320(DX)
	VMOVUPS Z6, 384(DX)
	VMOVUPS Z7, 448(DX)
	VZEROUPPER
	RET

// func avx512Kernel8x32(kc int, ap, bp, acc *float32)
//
// The pair body of the 8×16 kernel: two 8×16 tiles side by side, over two
// adjacent packed B slivers (bp: the first sliver's kc groups of 16 B
// values, the second's kc groups right after them). acc receives the first
// tile's 128 values, then the second's. Sixteen ZMM registers hold both
// tiles; each k step is two 16-wide B loads, eight scalar broadcasts from A,
// and sixteen fused multiply-adds — 512 flops per 10 loads. Every
// accumulator takes the same FMA, operands in the same roles, in the same
// ascending k order as avx512Kernel8x16's, so each tile has its bits.
TEXT ·avx512Kernel8x32(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX
	MOVQ CX, R8
	SHLQ $6, R8
	ADDQ DI, R8 // the second sliver, kc·16 floats on

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

	TESTQ CX, CX
	JZ    pstore

	PCALIGN $32 // the loop head starts a 32-byte fetch block

ploop:
	VMOVUPS      (DI), Z16
	VMOVUPS      (R8), Z17
	VBROADCASTSS (SI), Z18
	VBROADCASTSS 4(SI), Z19
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z8
	VFMADD231PS  Z16, Z19, Z1
	VFMADD231PS  Z17, Z19, Z9
	VBROADCASTSS 8(SI), Z20
	VBROADCASTSS 12(SI), Z21
	VFMADD231PS  Z16, Z20, Z2
	VFMADD231PS  Z17, Z20, Z10
	VFMADD231PS  Z16, Z21, Z3
	VFMADD231PS  Z17, Z21, Z11
	VBROADCASTSS 16(SI), Z18
	VBROADCASTSS 20(SI), Z19
	VFMADD231PS  Z16, Z18, Z4
	VFMADD231PS  Z17, Z18, Z12
	VFMADD231PS  Z16, Z19, Z5
	VFMADD231PS  Z17, Z19, Z13
	VBROADCASTSS 24(SI), Z20
	VBROADCASTSS 28(SI), Z21
	VFMADD231PS  Z16, Z20, Z6
	VFMADD231PS  Z17, Z20, Z14
	VFMADD231PS  Z16, Z21, Z7
	VFMADD231PS  Z17, Z21, Z15
	ADDQ         $32, SI
	ADDQ         $64, DI
	ADDQ         $64, R8
	DECQ         CX
	JNZ          ploop

pstore:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z4, 256(DX)
	VMOVUPS Z5, 320(DX)
	VMOVUPS Z6, 384(DX)
	VMOVUPS Z7, 448(DX)
	VMOVUPS Z8, 512(DX)
	VMOVUPS Z9, 576(DX)
	VMOVUPS Z10, 640(DX)
	VMOVUPS Z11, 704(DX)
	VMOVUPS Z12, 768(DX)
	VMOVUPS Z13, 832(DX)
	VMOVUPS Z14, 896(DX)
	VMOVUPS Z15, 960(DX)
	VZEROUPPER
	RET

// func avx512Kernel4x32(kc int, ap, bp, acc *float32)
//
// The first four rows of avx512Kernel8x32, for a sliver with at most four
// real rows: the same packed operands (ap: kc groups of 8 A values, of which
// it reads the first four), eight ZMM accumulators, and per k step two
// 16-wide B loads, four scalar broadcasts and eight fused multiply-adds —
// each the pair body's, operands in the same roles, in the same ascending k
// order, so rows 0–3 of each tile have its bits. acc receives rows 0–3 of
// the first tile at 0–255 and of the second at 512–767; rows 4–7 of each
// are not written.
TEXT ·avx512Kernel4x32(SB), NOSPLIT, $0-32
	MOVQ kc+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DI
	MOVQ acc+24(FP), DX
	MOVQ CX, R8
	SHLQ $6, R8
	ADDQ DI, R8 // the second sliver, kc·16 floats on

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11

	TESTQ CX, CX
	JZ    qstore

qloop:
	VMOVUPS      (DI), Z16
	VMOVUPS      (R8), Z17
	VBROADCASTSS (SI), Z18
	VBROADCASTSS 4(SI), Z19
	VFMADD231PS  Z16, Z18, Z0
	VFMADD231PS  Z17, Z18, Z8
	VFMADD231PS  Z16, Z19, Z1
	VFMADD231PS  Z17, Z19, Z9
	VBROADCASTSS 8(SI), Z20
	VBROADCASTSS 12(SI), Z21
	VFMADD231PS  Z16, Z20, Z2
	VFMADD231PS  Z17, Z20, Z10
	VFMADD231PS  Z16, Z21, Z3
	VFMADD231PS  Z17, Z21, Z11
	ADDQ         $32, SI
	ADDQ         $64, DI
	ADDQ         $64, R8
	DECQ         CX
	JNZ          qloop

qstore:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z8, 512(DX)
	VMOVUPS Z9, 576(DX)
	VMOVUPS Z10, 640(DX)
	VMOVUPS Z11, 704(DX)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
