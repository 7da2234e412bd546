//go:build amd64

#include "textflag.h"

// The vector loops that sit outside the micro-kernel: the write-back tail of
// a full blocked-GEMM tile (gemm_blocked.go), the body of SigmoidSlice
// (gemm_epilogue.go), the tap-accumulate kernel of the direct convolution
// (conv_direct.go) and the bodies of gemvRow's fused passes (gemm.go). Each
// comes in an AVX-512 and an AVX2 form, selected by the vecISA of the
// registry entry whose CPUID gate covers it (gemm_amd64.go).

// func tileTailAVX512(c *float32, ldc int, acc, bias *float32, flags int)
//
// The write-back tail of one full 8×16 tile: the accumulator rows the
// micro-kernel left in acc (row stride 16) go to the eight C rows at c (row
// stride ldc floats) through, in this order and only where flags ask,
//
//	v = acc + C        tailAccumulate (1): writeTile's crow[j] += v
//	v = v + bias[j]    tailColBias (2): epilogueTile's row[j] += cb[j]
//	v = v + bias[i]    tailRowBias (4): epilogueTile's row[j] += rb
//	v = max(0, v)      tailReLU (8), v the second source: −0 and NaN pass
//
// one VADDPS each with the running value as first source — the operand the
// compiled Go loops keep in the destination register — so where two NaNs
// meet, the payload that survives is the one the Go loop keeps. One store per
// row; C is read only under tailAccumulate.
TEXT ·tileTailAVX512(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ acc+16(FP), SI
	MOVQ bias+24(FP), DX
	MOVQ flags+32(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (DI)(R8*4), R10
	VMOVUPS (SI), Z0
	VMOVUPS 64(SI), Z1
	VMOVUPS 128(SI), Z2
	VMOVUPS 192(SI), Z3
	VMOVUPS 256(SI), Z4
	VMOVUPS 320(SI), Z5
	VMOVUPS 384(SI), Z6
	VMOVUPS 448(SI), Z7
	TESTQ $1, CX
	JZ    ztcol
	VADDPS (DI), Z0, Z0
	VADDPS (DI)(R8*1), Z1, Z1
	VADDPS (DI)(R8*2), Z2, Z2
	VADDPS (DI)(R9*1), Z3, Z3
	VADDPS (R10), Z4, Z4
	VADDPS (R10)(R8*1), Z5, Z5
	VADDPS (R10)(R8*2), Z6, Z6
	VADDPS (R10)(R9*1), Z7, Z7

ztcol:
	TESTQ $2, CX
	JZ    ztrow
	VMOVUPS (DX), Z8
	VADDPS Z8, Z0, Z0
	VADDPS Z8, Z1, Z1
	VADDPS Z8, Z2, Z2
	VADDPS Z8, Z3, Z3
	VADDPS Z8, Z4, Z4
	VADDPS Z8, Z5, Z5
	VADDPS Z8, Z6, Z6
	VADDPS Z8, Z7, Z7

ztrow:
	TESTQ $4, CX
	JZ    ztrelu
	VBROADCASTSS (DX), Z8
	VADDPS Z8, Z0, Z0
	VBROADCASTSS 4(DX), Z9
	VADDPS Z9, Z1, Z1
	VBROADCASTSS 8(DX), Z10
	VADDPS Z10, Z2, Z2
	VBROADCASTSS 12(DX), Z11
	VADDPS Z11, Z3, Z3
	VBROADCASTSS 16(DX), Z8
	VADDPS Z8, Z4, Z4
	VBROADCASTSS 20(DX), Z9
	VADDPS Z9, Z5, Z5
	VBROADCASTSS 24(DX), Z10
	VADDPS Z10, Z6, Z6
	VBROADCASTSS 28(DX), Z11
	VADDPS Z11, Z7, Z7

ztrelu:
	TESTQ $8, CX
	JZ    ztstore
	VPXORD Z8, Z8, Z8
	VMAXPS Z0, Z8, Z0
	VMAXPS Z1, Z8, Z1
	VMAXPS Z2, Z8, Z2
	VMAXPS Z3, Z8, Z3
	VMAXPS Z4, Z8, Z4
	VMAXPS Z5, Z8, Z5
	VMAXPS Z6, Z8, Z6
	VMAXPS Z7, Z8, Z7

ztstore:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(R8*1)
	VMOVUPS Z2, (DI)(R8*2)
	VMOVUPS Z3, (DI)(R9*1)
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, (R10)(R8*1)
	VMOVUPS Z6, (R10)(R8*2)
	VMOVUPS Z7, (R10)(R9*1)
	VZEROUPPER
	RET

// func tileTailAVX2(c *float32, ldc int, acc, bias *float32, flags int)
//
// tileTailAVX512 for the 8×8 tile: accumulator row stride 8, eight YMM rows.
TEXT ·tileTailAVX2(SB), NOSPLIT, $0-40
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ acc+16(FP), SI
	MOVQ bias+24(FP), DX
	MOVQ flags+32(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (DI)(R8*4), R10
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	VMOVUPS 192(SI), Y6
	VMOVUPS 224(SI), Y7
	TESTQ $1, CX
	JZ    ytcol
	VADDPS (DI), Y0, Y0
	VADDPS (DI)(R8*1), Y1, Y1
	VADDPS (DI)(R8*2), Y2, Y2
	VADDPS (DI)(R9*1), Y3, Y3
	VADDPS (R10), Y4, Y4
	VADDPS (R10)(R8*1), Y5, Y5
	VADDPS (R10)(R8*2), Y6, Y6
	VADDPS (R10)(R9*1), Y7, Y7

ytcol:
	TESTQ $2, CX
	JZ    ytrow
	VMOVUPS (DX), Y8
	VADDPS Y8, Y0, Y0
	VADDPS Y8, Y1, Y1
	VADDPS Y8, Y2, Y2
	VADDPS Y8, Y3, Y3
	VADDPS Y8, Y4, Y4
	VADDPS Y8, Y5, Y5
	VADDPS Y8, Y6, Y6
	VADDPS Y8, Y7, Y7

ytrow:
	TESTQ $4, CX
	JZ    ytrelu
	VBROADCASTSS (DX), Y8
	VADDPS Y8, Y0, Y0
	VBROADCASTSS 4(DX), Y9
	VADDPS Y9, Y1, Y1
	VBROADCASTSS 8(DX), Y10
	VADDPS Y10, Y2, Y2
	VBROADCASTSS 12(DX), Y11
	VADDPS Y11, Y3, Y3
	VBROADCASTSS 16(DX), Y8
	VADDPS Y8, Y4, Y4
	VBROADCASTSS 20(DX), Y9
	VADDPS Y9, Y5, Y5
	VBROADCASTSS 24(DX), Y10
	VADDPS Y10, Y6, Y6
	VBROADCASTSS 28(DX), Y11
	VADDPS Y11, Y7, Y7

ytrelu:
	TESTQ $8, CX
	JZ    ytstore
	VXORPS Y8, Y8, Y8
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y8, Y1
	VMAXPS Y2, Y8, Y2
	VMAXPS Y3, Y8, Y3
	VMAXPS Y4, Y8, Y4
	VMAXPS Y5, Y8, Y5
	VMAXPS Y6, Y8, Y6
	VMAXPS Y7, Y8, Y7

ytstore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R8*1)
	VMOVUPS Y2, (DI)(R8*2)
	VMOVUPS Y3, (DI)(R9*1)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, (R10)(R8*1)
	VMOVUPS Y6, (R10)(R8*2)
	VMOVUPS Y7, (R10)(R9*1)
	VZEROUPPER
	RET

// func packRows8AVX2(dst, src *float32, lda, blocks int)
//
// packA's row-major case for one full sliver: eight rows of A, lda floats
// apart from src, are copied depth-major — dst[p·8+i] = src[i·lda+p] — for
// blocks·8 depths, an 8×8 transpose in YMM registers per block (unpack
// pairs, shuffle quads, swap 128-bit halves) and eight contiguous stores
// where the Go loop scatters. Copies only: any operand's bits survive.
TEXT ·packRows8AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ blocks+24(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R8*4), R10

ptrans:
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(R8*1), Y1
	VMOVUPS    (SI)(R8*2), Y2
	VMOVUPS    (SI)(R9*1), Y3
	VMOVUPS    (R10), Y4
	VMOVUPS    (R10)(R8*1), Y5
	VMOVUPS    (R10)(R8*2), Y6
	VMOVUPS    (R10)(R9*1), Y7
	VUNPCKLPS  Y1, Y0, Y8
	VUNPCKHPS  Y1, Y0, Y9
	VUNPCKLPS  Y3, Y2, Y10
	VUNPCKHPS  Y3, Y2, Y11
	VUNPCKLPS  Y5, Y4, Y12
	VUNPCKHPS  Y5, Y4, Y13
	VUNPCKLPS  Y7, Y6, Y14
	VUNPCKHPS  Y7, Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0
	VSHUFPS    $0xEE, Y10, Y8, Y1
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xEE, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4
	VSHUFPS    $0xEE, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS    Y8, (DI)
	VMOVUPS    Y9, 32(DI)
	VMOVUPS    Y10, 64(DI)
	VMOVUPS    Y11, 96(DI)
	VMOVUPS    Y12, 128(DI)
	VMOVUPS    Y13, 160(DI)
	VMOVUPS    Y14, 192(DI)
	VMOVUPS    Y15, 224(DI)
	ADDQ       $32, SI
	ADDQ       $32, R10
	ADDQ       $256, DI
	DECQ       CX
	JNZ        ptrans
	VZEROUPPER
	RET

// SIGMOID_TIE_MARGIN is how close, in float64 ulps, the vector sigmoid lets
// its y = 1/(1+e) come to a float32 rounding tie before it stops trusting
// the lane. The budget it covers, in ulps of y, y and Sigmoid32's own
// float64 quotient both measured from the true 1/(1+exp(−x)):
//
//	the vector exp: |r| ≤ ½ln 2 + 2⁻⁴⁵ after the reduction (k·ln2hi exact,
//	  k·ln2lo and the two fused subtractions < 1 ulp of r, which e^r passes
//	  on undamped: < 1); Taylor's remainder r¹³/13! ≤ 1.7·10⁻¹⁶ on a sum
//	  ≥ 0.7 (< 1.1); twelve fused Horner steps, each rounding a partial sum
//	  that the remaining factors of |r| ≤ 0.35 shrink (< 1); 2ᵏ exact: < 4;
//	math.Exp: < 1 by its own statement;
//	either 1 + e and either division: ½ each, and d y/y = −d e·e/(1+e), so
//	  an error in e never grows on its way to y: < 5 for the vector y, < 2
//	  for Sigmoid32's.
//
// The two quotients are therefore within 7 ulps of one another. A lane whose
// dropped 29 bits are more than the margin from the tie (2²⁸) rounds to the
// same float32 as every float64 within the margin of it — a neighbour across
// a binade or a float32 boundary included, since there the dropped bits are
// near 0, not near the tie — which leaves a factor of 140 over the budget,
// at the cost of handing one element in 50 000 (0.002 % measured) back to
// Sigmoid32. That the margin holds is not left to the argument:
// TestSigmoidSliceExhaustive compares all 2³² inputs.
#define SIGMOID_TIE_MARGIN 1024

// The constants of the vector sigmoid. float64: log₂e; ln 2 split as
// math.Exp splits it (the high part has 21 trailing zero bits, so k·ln2hi is
// exact for every k the routine meets); 1; the Taylor coefficients 1/2! to
// 1/12!. int64, the trust test: ((y's bits + offset) & mask) ≤ bound exactly
// when the 29 bits under the mask are within the margin of 2²⁸. int32: the
// float32 sign bit and 80 as a float32.
DATA sigmoidConst<>+0(SB)/8, $0x3FF71547652B82FE
DATA sigmoidConst<>+8(SB)/8, $0x3FE62E42FEE00000
DATA sigmoidConst<>+16(SB)/8, $0x3DEA39EF35793C76
DATA sigmoidConst<>+24(SB)/8, $0x3FF0000000000000
DATA sigmoidConst<>+32(SB)/8, $0x3FE0000000000000
DATA sigmoidConst<>+40(SB)/8, $0x3FC5555555555555
DATA sigmoidConst<>+48(SB)/8, $0x3FA5555555555555
DATA sigmoidConst<>+56(SB)/8, $0x3F81111111111111
DATA sigmoidConst<>+64(SB)/8, $0x3F56C16C16C16C17
DATA sigmoidConst<>+72(SB)/8, $0x3F2A01A01A01A01A
DATA sigmoidConst<>+80(SB)/8, $0x3EFA01A01A01A01A
DATA sigmoidConst<>+88(SB)/8, $0x3EC71DE3A556C734
DATA sigmoidConst<>+96(SB)/8, $0x3E927E4FB7789F5C
DATA sigmoidConst<>+104(SB)/8, $0x3E5AE64567F544E4
DATA sigmoidConst<>+112(SB)/8, $0x3E21EED8EFF8D898
DATA sigmoidConst<>+120(SB)/8, $(0x10000000+SIGMOID_TIE_MARGIN)
DATA sigmoidConst<>+128(SB)/8, $0x000000001FFFFFFF
DATA sigmoidConst<>+136(SB)/8, $(2*SIGMOID_TIE_MARGIN)
DATA sigmoidConst<>+144(SB)/4, $0x80000000
DATA sigmoidConst<>+148(SB)/4, $0x42A00000
GLOBL sigmoidConst<>(SB), RODATA|NOPTR, $152

// func sigmoidAVX512(dst, src *float32, n int) int
//
// dst[i] = Sigmoid32(src[i]) over leading 16-float blocks of [0, n), n a
// positive multiple of 16, for as long as every lane of a block can be
// trusted; returns how many elements were stored (a multiple of 16), leaving
// the block it stopped at untouched. dst may be src.
//
// A block computes Sigmoid32's own expression in float64 lanes: t = −x, k =
// rint(t·log₂e), r = t − k·ln2hi − k·ln2lo (|r| ≤ ½ln 2), e = 2ᵏ·Σ rⁿ/n!
// (n ≤ 12, Horner, fused), y = 1/(1 + e). A lane is trusted when |x| ≤ 80
// (so neither e nor the float32 of y leaves the normal range, and x is no
// NaN) and the 29 bits of y that the conversion to float32 drops are more
// than SIGMOID_TIE_MARGIN away from the rounding tie 2²⁸: then every float64
// within that many ulps of y — math.Exp's y among them — rounds to the same
// float32, and VCVTPD2PS (round to nearest even, as Go's conversion) stores
// it.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VBROADCASTSD sigmoidConst<>+0(SB), Z16  // log₂e
	VBROADCASTSD sigmoidConst<>+8(SB), Z17  // ln2hi
	VBROADCASTSD sigmoidConst<>+16(SB), Z18 // ln2lo
	VBROADCASTSD sigmoidConst<>+24(SB), Z19 // 1
	VBROADCASTSD sigmoidConst<>+32(SB), Z20 // 1/2!
	VBROADCASTSD sigmoidConst<>+40(SB), Z21 // 1/3!
	VBROADCASTSD sigmoidConst<>+48(SB), Z22 // 1/4!
	VBROADCASTSD sigmoidConst<>+56(SB), Z23 // 1/5!
	VBROADCASTSD sigmoidConst<>+64(SB), Z24 // 1/6!
	VBROADCASTSD sigmoidConst<>+72(SB), Z25 // 1/7!
	VBROADCASTSD sigmoidConst<>+80(SB), Z26 // 1/8!
	VBROADCASTSD sigmoidConst<>+88(SB), Z27 // 1/9!
	VBROADCASTSD sigmoidConst<>+96(SB), Z28 // 1/10!
	VBROADCASTSD sigmoidConst<>+104(SB), Z29 // 1/11!
	VBROADCASTSD sigmoidConst<>+112(SB), Z30 // 1/12!
	VPBROADCASTQ sigmoidConst<>+120(SB), Z12
	VPBROADCASTQ sigmoidConst<>+128(SB), Z13
	VPBROADCASTQ sigmoidConst<>+136(SB), Z14
	VPBROADCASTD sigmoidConst<>+144(SB), Z10
	VPBROADCASTD sigmoidConst<>+148(SB), Z11

zsig:
	VMOVUPS       (SI)(AX*4), Z0
	VPANDND       Z0, Z10, Z1
	VPCMPUD       $6, Z11, Z1, K1 // |x| > 80, ±Inf, NaN
	VPXORD        Z10, Z0, Z0     // t = −x
	VCVTPS2PD     Y0, Z2
	VEXTRACTF64X4 $1, Z0, Y1
	VCVTPS2PD     Y1, Z3
	VMULPD        Z16, Z2, Z4
	VMULPD        Z16, Z3, Z5
	VRNDSCALEPD   $8, Z4, Z4      // k
	VRNDSCALEPD   $8, Z5, Z5
	VFNMADD231PD  Z17, Z4, Z2
	VFNMADD231PD  Z17, Z5, Z3
	VFNMADD231PD  Z18, Z4, Z2     // r
	VFNMADD231PD  Z18, Z5, Z3
	VMOVAPD       Z30, Z6
	VMOVAPD       Z30, Z7
	VFMADD213PD Z29, Z2, Z6
	VFMADD213PD Z29, Z3, Z7
	VFMADD213PD Z28, Z2, Z6
	VFMADD213PD Z28, Z3, Z7
	VFMADD213PD Z27, Z2, Z6
	VFMADD213PD Z27, Z3, Z7
	VFMADD213PD Z26, Z2, Z6
	VFMADD213PD Z26, Z3, Z7
	VFMADD213PD Z25, Z2, Z6
	VFMADD213PD Z25, Z3, Z7
	VFMADD213PD Z24, Z2, Z6
	VFMADD213PD Z24, Z3, Z7
	VFMADD213PD Z23, Z2, Z6
	VFMADD213PD Z23, Z3, Z7
	VFMADD213PD Z22, Z2, Z6
	VFMADD213PD Z22, Z3, Z7
	VFMADD213PD Z21, Z2, Z6
	VFMADD213PD Z21, Z3, Z7
	VFMADD213PD Z20, Z2, Z6
	VFMADD213PD Z20, Z3, Z7
	VFMADD213PD Z19, Z2, Z6
	VFMADD213PD Z19, Z3, Z7
	VFMADD213PD Z19, Z2, Z6
	VFMADD213PD Z19, Z3, Z7
	VSCALEFPD     Z4, Z6, Z6      // e
	VSCALEFPD     Z5, Z7, Z7
	VADDPD        Z19, Z6, Z6
	VADDPD        Z19, Z7, Z7
	VDIVPD        Z6, Z19, Z6     // y
	VDIVPD        Z7, Z19, Z7
	VPADDQ        Z12, Z6, Z4
	VPADDQ        Z12, Z7, Z5
	VPANDQ        Z13, Z4, Z4
	VPANDQ        Z13, Z5, Z5
	VPCMPUQ       $2, Z14, Z4, K2 // within the margin of a tie
	VPCMPUQ       $2, Z14, Z5, K3
	KORW          K2, K1, K1
	KORW          K3, K1, K1
	KORTESTW      K1, K1
	JNZ           zsigdone
	VCVTPD2PS     Z6, Y6
	VCVTPD2PS     Z7, Y7
	VINSERTF64X4  $1, Y7, Z6, Z6
	VMOVUPS       Z6, (DI)(AX*4)
	ADDQ          $16, AX
	CMPQ          AX, CX
	JLT           zsig

zsigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src *float32, n int) int
//
// sigmoidAVX512 in 8-float blocks of two YMM float64 vectors, n a positive
// multiple of 8: the same operations in the same order, with 2ᵏ applied by
// adding k to the exponent field (e's factor lies in [0.7, 1.42] and |k| ≤
// 116, so that is VSCALEFPD's product exactly). The coefficients, which the
// FMAs take as 256-bit memory operands, are spread into the frame first.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $384-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VBROADCASTSD sigmoidConst<>+32(SB), Y0
	VMOVUPS      Y0, 0(SP)
	VBROADCASTSD sigmoidConst<>+40(SB), Y0
	VMOVUPS      Y0, 32(SP)
	VBROADCASTSD sigmoidConst<>+48(SB), Y0
	VMOVUPS      Y0, 64(SP)
	VBROADCASTSD sigmoidConst<>+56(SB), Y0
	VMOVUPS      Y0, 96(SP)
	VBROADCASTSD sigmoidConst<>+64(SB), Y0
	VMOVUPS      Y0, 128(SP)
	VBROADCASTSD sigmoidConst<>+72(SB), Y0
	VMOVUPS      Y0, 160(SP)
	VBROADCASTSD sigmoidConst<>+80(SB), Y0
	VMOVUPS      Y0, 192(SP)
	VBROADCASTSD sigmoidConst<>+88(SB), Y0
	VMOVUPS      Y0, 224(SP)
	VBROADCASTSD sigmoidConst<>+96(SB), Y0
	VMOVUPS      Y0, 256(SP)
	VBROADCASTSD sigmoidConst<>+104(SB), Y0
	VMOVUPS      Y0, 288(SP)
	VBROADCASTSD sigmoidConst<>+112(SB), Y0
	VMOVUPS      Y0, 320(SP)
	VPBROADCASTQ sigmoidConst<>+136(SB), Y0
	VMOVUPS      Y0, 352(SP)
	VBROADCASTSD sigmoidConst<>+0(SB), Y12
	VBROADCASTSD sigmoidConst<>+8(SB), Y13
	VBROADCASTSD sigmoidConst<>+16(SB), Y14
	VBROADCASTSD sigmoidConst<>+24(SB), Y15
	VPBROADCASTQ sigmoidConst<>+120(SB), Y10
	VPBROADCASTQ sigmoidConst<>+128(SB), Y11
	VPBROADCASTD sigmoidConst<>+144(SB), Y9
	VPBROADCASTD sigmoidConst<>+148(SB), Y8

ysig:
	VMOVUPS      (SI)(AX*4), Y0
	VPANDN       Y0, Y9, Y1
	VPCMPGTD     Y8, Y1, Y1      // |x| > 80, ±Inf, NaN
	VMOVMSKPS    Y1, R8
	VXORPS       Y9, Y0, Y0      // t = −x
	VCVTPS2PD    X0, Y2
	VEXTRACTF128 $1, Y0, X1
	VCVTPS2PD    X1, Y3
	VMULPD       Y12, Y2, Y4
	VMULPD       Y12, Y3, Y5
	VROUNDPD     $8, Y4, Y4      // k
	VROUNDPD     $8, Y5, Y5
	VFNMADD231PD Y13, Y4, Y2
	VFNMADD231PD Y13, Y5, Y3
	VFNMADD231PD Y14, Y4, Y2     // r
	VFNMADD231PD Y14, Y5, Y3
	VMOVUPD      320(SP), Y6
	VMOVAPD      Y6, Y7
	VFMADD213PD 288(SP), Y2, Y6
	VFMADD213PD 288(SP), Y3, Y7
	VFMADD213PD 256(SP), Y2, Y6
	VFMADD213PD 256(SP), Y3, Y7
	VFMADD213PD 224(SP), Y2, Y6
	VFMADD213PD 224(SP), Y3, Y7
	VFMADD213PD 192(SP), Y2, Y6
	VFMADD213PD 192(SP), Y3, Y7
	VFMADD213PD 160(SP), Y2, Y6
	VFMADD213PD 160(SP), Y3, Y7
	VFMADD213PD 128(SP), Y2, Y6
	VFMADD213PD 128(SP), Y3, Y7
	VFMADD213PD 96(SP), Y2, Y6
	VFMADD213PD 96(SP), Y3, Y7
	VFMADD213PD 64(SP), Y2, Y6
	VFMADD213PD 64(SP), Y3, Y7
	VFMADD213PD 32(SP), Y2, Y6
	VFMADD213PD 32(SP), Y3, Y7
	VFMADD213PD 0(SP), Y2, Y6
	VFMADD213PD 0(SP), Y3, Y7
	VFMADD213PD Y15, Y2, Y6
	VFMADD213PD Y15, Y3, Y7
	VFMADD213PD Y15, Y2, Y6
	VFMADD213PD Y15, Y3, Y7
	VCVTPD2DQY   Y4, X4
	VCVTPD2DQY   Y5, X5
	VPMOVSXDQ    X4, Y4
	VPMOVSXDQ    X5, Y5
	VPSLLQ       $52, Y4, Y4
	VPSLLQ       $52, Y5, Y5
	VPADDQ       Y4, Y6, Y6      // e
	VPADDQ       Y5, Y7, Y7
	VADDPD       Y15, Y6, Y6
	VADDPD       Y15, Y7, Y7
	VDIVPD       Y6, Y15, Y6     // y
	VDIVPD       Y7, Y15, Y7
	VPADDQ       Y10, Y6, Y4
	VPADDQ       Y10, Y7, Y5
	VPAND        Y11, Y4, Y4
	VPAND        Y11, Y5, Y5
	VPCMPGTQ     352(SP), Y4, Y4 // clear of every tie
	VPCMPGTQ     352(SP), Y5, Y5
	VMOVMSKPD    Y4, R9
	VMOVMSKPD    Y5, R10
	XORQ         $15, R9
	XORQ         $15, R10
	ORQ          R9, R8
	ORQ          R10, R8
	JNZ          ysigdone
	VCVTPD2PSY   Y6, X6
	VCVTPD2PSY   Y7, X7
	VINSERTF128  $1, X7, Y6, Y6
	VMOVUPS      Y6, (DI)(AX*4)
	ADDQ         $8, AX
	CMPQ         AX, CX
	JLT          ysig

ysigdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

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
