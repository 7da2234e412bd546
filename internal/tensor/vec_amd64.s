//go:build amd64

#include "textflag.h"

// The two vector loops that sit outside the blocked GEMM: the tap-accumulate
// kernel of the direct convolution (conv_direct.go) and the bodies of
// gemvRow's fused passes (gemm.go). Each comes in an AVX-512 and an AVX2
// form, selected by the vecISA of the registry entry whose CPUID gate
// covers it (gemm_amd64.go).

// func tapConvAVX512(plane, frame, w *float32, off *int, taps, blocks int, bias, floor float32)
//
// For each of blocks consecutive 64-position blocks of plane:
// plane[p] = max(Σ_t w[t]·frame[p+off[t]] + bias, floor). The sum runs t
// ascending, one VFMADD231PS per tap from a zero accumulator — operand for
// operand the micro-kernel's acc = fma(b, a, acc), with the tap's weight in
// the broadcast (A) slot and the frame in the streamed (B) slot. The bias is
// one VADDPS, the epilogue's row[j] += rb; the floor is VMAXPS with the sum
// as second source, which hands back the sum itself when it is NaN or a zero
// of either sign — the epilogue's `if v < 0 { v = 0 }` for floor 0, nothing
// for floor −Inf. Four ZMM accumulators are in flight per block; taps ≥ 1.
TEXT ·tapConvAVX512(SB), NOSPLIT, $0-56
	MOVQ plane+0(FP), DX
	MOVQ frame+8(FP), DI
	MOVQ w+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ taps+32(FP), R10
	MOVQ blocks+40(FP), R11
	VBROADCASTSS bias+48(FP), Z5
	VBROADCASTSS floor+52(FP), Z6

zblock:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	XORQ   CX, CX

ztap:
	MOVQ         (R8)(CX*8), R9
	VBROADCASTSS (SI)(CX*4), Z4
	VFMADD231PS  (DI)(R9*4), Z4, Z0
	VFMADD231PS  64(DI)(R9*4), Z4, Z1
	VFMADD231PS  128(DI)(R9*4), Z4, Z2
	VFMADD231PS  192(DI)(R9*4), Z4, Z3
	INCQ         CX
	CMPQ         CX, R10
	JLT          ztap

	VADDPS  Z5, Z0, Z0
	VADDPS  Z5, Z1, Z1
	VADDPS  Z5, Z2, Z2
	VADDPS  Z5, Z3, Z3
	VMAXPS  Z0, Z6, Z0
	VMAXPS  Z1, Z6, Z1
	VMAXPS  Z2, Z6, Z2
	VMAXPS  Z3, Z6, Z3
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	ADDQ    $256, DX
	ADDQ    $256, DI
	DECQ    R11
	JNZ     zblock
	VZEROUPPER
	RET

// func tapConvAVX2(plane, frame, w *float32, off *int, taps, blocks int, bias, floor float32)
//
// tapConvAVX512 over eight YMM accumulators: the same 64 positions a block.
TEXT ·tapConvAVX2(SB), NOSPLIT, $0-56
	MOVQ plane+0(FP), DX
	MOVQ frame+8(FP), DI
	MOVQ w+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ taps+32(FP), R10
	MOVQ blocks+40(FP), R11
	VBROADCASTSS bias+48(FP), Y9
	VBROADCASTSS floor+52(FP), Y10

yblock:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   CX, CX

ytap:
	MOVQ         (R8)(CX*8), R9
	VBROADCASTSS (SI)(CX*4), Y8
	VFMADD231PS  (DI)(R9*4), Y8, Y0
	VFMADD231PS  32(DI)(R9*4), Y8, Y1
	VFMADD231PS  64(DI)(R9*4), Y8, Y2
	VFMADD231PS  96(DI)(R9*4), Y8, Y3
	VFMADD231PS  128(DI)(R9*4), Y8, Y4
	VFMADD231PS  160(DI)(R9*4), Y8, Y5
	VFMADD231PS  192(DI)(R9*4), Y8, Y6
	VFMADD231PS  224(DI)(R9*4), Y8, Y7
	INCQ         CX
	CMPQ         CX, R10
	JLT          ytap

	VADDPS  Y9, Y0, Y0
	VADDPS  Y9, Y1, Y1
	VADDPS  Y9, Y2, Y2
	VADDPS  Y9, Y3, Y3
	VADDPS  Y9, Y4, Y4
	VADDPS  Y9, Y5, Y5
	VADDPS  Y9, Y6, Y6
	VADDPS  Y9, Y7, Y7
	VMAXPS  Y0, Y10, Y0
	VMAXPS  Y1, Y10, Y1
	VMAXPS  Y2, Y10, Y2
	VMAXPS  Y3, Y10, Y3
	VMAXPS  Y4, Y10, Y4
	VMAXPS  Y5, Y10, Y5
	VMAXPS  Y6, Y10, Y6
	VMAXPS  Y7, Y10, Y7
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	ADDQ    $256, DX
	ADDQ    $256, DI
	DECQ    R11
	JNZ     yblock
	VZEROUPPER
	RET

// func axpy4AVX512(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
//
// c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j] for j in
// [0, n), n a positive multiple of 16. Products and sums are separate
// instructions in the Go loop's left-to-right association, so every element
// has the Go loop's bits.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DX
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSS a0+48(FP), Z0
	VBROADCASTSS a1+52(FP), Z1
	VBROADCASTSS a2+56(FP), Z2
	VBROADCASTSS a3+60(FP), Z3
	SHLQ $2, CX
	XORQ AX, AX

z4loop:
	VMULPS  (R8)(AX*1), Z0, Z4
	VMULPS  (R9)(AX*1), Z1, Z5
	VADDPS  Z5, Z4, Z4
	VMULPS  (R10)(AX*1), Z2, Z5
	VADDPS  Z5, Z4, Z4
	VMULPS  (R11)(AX*1), Z3, Z5
	VADDPS  Z5, Z4, Z4
	VADDPS  (DX)(AX*1), Z4, Z4
	VMOVUPS Z4, (DX)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     z4loop
	VZEROUPPER
	RET

// func axpy4AVX2(c, b0, b1, b2, b3 *float32, n int, a0, a1, a2, a3 float32)
//
// axpy4AVX512 eight floats at a time; n a positive multiple of 8.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DX
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3
	SHLQ $2, CX
	XORQ AX, AX

y4loop:
	VMULPS  (R8)(AX*1), Y0, Y4
	VMULPS  (R9)(AX*1), Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R10)(AX*1), Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R11)(AX*1), Y3, Y5
	VADDPS  Y5, Y4, Y4
	VADDPS  (DX)(AX*1), Y4, Y4
	VMOVUPS Y4, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     y4loop
	VZEROUPPER
	RET

// func axpy1AVX512(c, b *float32, n int, a float32)
//
// c[j] += a·b[j] for j in [0, n), n a positive multiple of 16; multiply and
// add unfused.
TEXT ·axpy1AVX512(SB), NOSPLIT, $0-28
	MOVQ c+0(FP), DX
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Z0
	SHLQ $2, CX
	XORQ AX, AX

z1loop:
	VMULPS  (R8)(AX*1), Z0, Z4
	VADDPS  (DX)(AX*1), Z4, Z4
	VMOVUPS Z4, (DX)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, CX
	JLT     z1loop
	VZEROUPPER
	RET

// func axpy1AVX2(c, b *float32, n int, a float32)
//
// axpy1AVX512 eight floats at a time; n a positive multiple of 8.
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-28
	MOVQ c+0(FP), DX
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), CX
	VBROADCASTSS a+24(FP), Y0
	SHLQ $2, CX
	XORQ AX, AX

y1loop:
	VMULPS  (R8)(AX*1), Y0, Y4
	VADDPS  (DX)(AX*1), Y4, Y4
	VMOVUPS Y4, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     y1loop
	VZEROUPPER
	RET
