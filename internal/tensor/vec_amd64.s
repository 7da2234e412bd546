//go:build amd64

#include "textflag.h"

// The vector loops that sit outside the micro-kernel: the write-back tail of
// a full-width blocked-GEMM tile and the row-major A packing
// (gemm_blocked.go), the body of SigmoidSlice (gemm_epilogue.go), the
// tap-accumulate kernel and the row compaction of the direct convolution
// (conv_direct.go), the 2×2 max-pool body (maxpool.go) and the bodies of
// gemvRow's multiply-add passes (gemm.go). Each but the
// packing (one AVX2 transpose under both) comes in an AVX-512 and an AVX2
// form, selected by the vecISA of the registry entry whose CPUID gate covers
// it (gemm_amd64.go); the AVX-512 forms use AVX-512F instructions only, the
// gate's one feature.

// func tileTailAVX512(c *float32, ldc int, acc, bias *float32, flags, rows int)
//
// The write-back tail of one 8×16 tile, rows (1 to 8) of it real: the
// accumulator rows the micro-kernel left in acc (row stride 16) go to the
// rows C rows at c (row stride ldc floats) through, in this order and only
// where flags ask,
//
//	v = acc + C        tailAccumulate (1): writeTile's crow[j] += v
//	v = v + bias[j]    tailColBias (2): epilogueTile's row[j] += cb[j]
//	v = v + bias[i]    tailRowBias (4): epilogueTile's row[j] += rb
//	v = max(0, v)      tailReLU (8), v the second source: −0 and NaN pass
//
// one VADDPS each with the running value as first source — the operand the
// compiled Go loops keep in the destination register — so where two NaNs
// meet, the payload that survives is the one the Go loop keeps. One store per
// row; C is read only under tailAccumulate, and acc, C and a row bias only
// for the real rows. A full tile runs unrolled, every row loaded before any
// is stored; a short one, a row at a time through the same operations. The
// row loop on full tiles too made the AE plan ~6 % slower at batch 32 and
// cost offline_hard_b32 ~7 % of its imgs/s (2-core AVX-512 Xeon).
TEXT ·tileTailAVX512(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ acc+16(FP), SI
	MOVQ bias+24(FP), DX
	MOVQ flags+32(FP), CX
	MOVQ rows+40(FP), BX
	SHLQ $2, R8
	CMPQ BX, $8
	JLT  ztshort
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

ztshort:
	TESTQ $2, CX
	JZ    ztszero
	VMOVUPS (DX), Z8

ztszero:
	VPXORD Z10, Z10, Z10

ztsrow:
	VMOVUPS (SI), Z0
	TESTQ   $1, CX
	JZ      ztscol
	VADDPS  (DI), Z0, Z0

ztscol:
	TESTQ  $2, CX
	JZ     ztsbias
	VADDPS Z8, Z0, Z0

ztsbias:
	TESTQ        $4, CX
	JZ           ztsrelu
	VBROADCASTSS (DX), Z9
	VADDPS       Z9, Z0, Z0
	ADDQ         $4, DX

ztsrelu:
	TESTQ  $8, CX
	JZ     ztsstore
	VMAXPS Z0, Z10, Z0

ztsstore:
	VMOVUPS Z0, (DI)
	ADDQ    $64, SI
	ADDQ    R8, DI
	DECQ    BX
	JNZ     ztsrow
	VZEROUPPER
	RET

// func tileTailAVX2(c *float32, ldc int, acc, bias *float32, flags, rows int)
//
// tileTailAVX512 for the 8×8 tile: accumulator row stride 8, YMM rows.
TEXT ·tileTailAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ acc+16(FP), SI
	MOVQ bias+24(FP), DX
	MOVQ flags+32(FP), CX
	MOVQ rows+40(FP), BX
	SHLQ $2, R8
	CMPQ BX, $8
	JLT  ytshort
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

ytshort:
	TESTQ $2, CX
	JZ    ytszero
	VMOVUPS (DX), Y8

ytszero:
	VXORPS Y10, Y10, Y10

ytsrow:
	VMOVUPS (SI), Y0
	TESTQ   $1, CX
	JZ      ytscol
	VADDPS  (DI), Y0, Y0

ytscol:
	TESTQ  $2, CX
	JZ     ytsbias
	VADDPS Y8, Y0, Y0

ytsbias:
	TESTQ        $4, CX
	JZ           ytsrelu
	VBROADCASTSS (DX), Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, DX

ytsrelu:
	TESTQ  $8, CX
	JZ     ytsstore
	VMAXPS Y0, Y10, Y0

ytsstore:
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    R8, DI
	DECQ    BX
	JNZ     ytsrow
	VZEROUPPER
	RET

// func packRows8AVX2(dst, src *float32, lda, blocks, rows int)
//
// packA's row-major case for one sliver: rows (1 to 8) rows of A, lda
// floats apart from src, are copied depth-major — dst[p·8+i] = src[i·lda+p],
// and +0 for i ≥ rows — for blocks·8 depths, an 8×8 transpose in YMM
// registers per block (unpack pairs, shuffle quads, swap 128-bit halves) and
// eight contiguous stores where the Go loop scatters. A short sliver loads
// its real rows over zeroed registers and reads nothing past its last row.
// Copies only: any operand's bits survive.
TEXT ·packRows8AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ blocks+24(FP), CX
	MOVQ rows+32(FP), BX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (SI)(R8*4), R10

pblock:
	CMPQ       BX, $8
	JLT        pshort
	VMOVUPS    (SI), Y0
	VMOVUPS    (SI)(R8*1), Y1
	VMOVUPS    (SI)(R8*2), Y2
	VMOVUPS    (SI)(R9*1), Y3
	VMOVUPS    (R10), Y4
	VMOVUPS    (R10)(R8*1), Y5
	VMOVUPS    (R10)(R8*2), Y6
	VMOVUPS    (R10)(R9*1), Y7

ptrans:
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
	JNZ        pblock
	VZEROUPPER
	RET

pshort:
	VXORPS     Y1, Y1, Y1
	VXORPS     Y2, Y2, Y2
	VXORPS     Y3, Y3, Y3
	VXORPS     Y4, Y4, Y4
	VXORPS     Y5, Y5, Y5
	VXORPS     Y6, Y6, Y6
	VXORPS     Y7, Y7, Y7
	VMOVUPS    (SI), Y0
	CMPQ       BX, $2
	JLT        ptrans
	VMOVUPS    (SI)(R8*1), Y1
	CMPQ       BX, $3
	JLT        ptrans
	VMOVUPS    (SI)(R8*2), Y2
	CMPQ       BX, $4
	JLT        ptrans
	VMOVUPS    (SI)(R9*1), Y3
	CMPQ       BX, $5
	JLT        ptrans
	VMOVUPS    (R10), Y4
	CMPQ       BX, $6
	JLT        ptrans
	VMOVUPS    (R10)(R8*1), Y5
	CMPQ       BX, $7
	JLT        ptrans
	VMOVUPS    (R10)(R8*2), Y6
	JMP        ptrans

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

// ZFRAME loads the frame block of tap CX — the 64 positions at frame +
// off[t] — into Z0–Z3, once for every plane of the group.
#define ZFRAME \
	MOVQ    (R8)(CX*8), R9; \
	LEAQ    (DI)(R9*4), R9; \
	VMOVUPS (R9), Z0; \
	VMOVUPS 64(R9), Z1; \
	VMOVUPS 128(R9), Z2; \
	VMOVUPS 192(R9), Z3

// ZTAP is one plane's share of tap CX: the weight of its kernel at wp
// broadcast, then four fused multiply-adds with the frame block.
#define ZTAP(wp, a0, a1, a2, a3) \
	VBROADCASTSS (wp)(CX*4), Z4; \
	VFMADD231PS  Z0, Z4, a0; \
	VFMADD231PS  Z1, Z4, a1; \
	VFMADD231PS  Z2, Z4, a2; \
	VFMADD231PS  Z3, Z4, a3

// ZOUT finishes one plane's block: the bias b added, the floor (Z23)
// applied, the 64 values stored at p.
#define ZOUT(b, a0, a1, a2, a3, p) \
	VADDPS  b, a0, a0; \
	VADDPS  b, a1, a1; \
	VADDPS  b, a2, a2; \
	VADDPS  b, a3, a3; \
	VMAXPS  a0, Z23, a0; \
	VMAXPS  a1, Z23, a1; \
	VMAXPS  a2, Z23, a2; \
	VMAXPS  a3, Z23, a3; \
	VMOVUPS a0, (p); \
	VMOVUPS a1, 64(p); \
	VMOVUPS a2, 128(p); \
	VMOVUPS a3, 192(p)

#define ZZERO(a0, a1, a2, a3) \
	VPXORD a0, a0, a0; \
	VPXORD a1, a1, a1; \
	VPXORD a2, a2, a2; \
	VPXORD a3, a3, a3

// func tapConvAVX512(planes, frame, w *float32, off *int, taps, blocks, group, stride int, bias *float32, floor float32)
//
// For each of blocks consecutive 64-position blocks and each plane j of the
// group (1, 2 or 3 planes, plane j at planes + j·stride floats, its kernel at
// w + j·taps): plane_j[p] = max(Σ_t w_j[t]·frame[p+off[t]] + bias[j],
// floor). The sum runs t ascending, one VFMADD231PS per tap from a zero
// accumulator — operand for operand the micro-kernel's acc = fma(b, a, acc),
// with the tap's weight in the broadcast (A) slot and the frame in the
// streamed (B) slot. The bias is one VADDPS, the epilogue's row[j] += rb; the
// floor is VMAXPS with the sum as second source, which hands back the sum
// itself when it is NaN or a zero of either sign — the epilogue's `if v < 0
// { v = 0 }` for floor 0, nothing for floor −Inf. Per tap the frame block is
// loaded once and each plane's weight broadcast into four FMAs: twelve ZMM
// accumulators in flight for a group of three. taps ≥ 1.
TEXT ·tapConvAVX512(SB), NOSPLIT, $0-76
	MOVQ planes+0(FP), DX
	MOVQ frame+8(FP), DI
	MOVQ w+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ taps+32(FP), R10
	MOVQ blocks+40(FP), R11
	MOVQ group+48(FP), AX
	MOVQ stride+56(FP), R12
	MOVQ bias+64(FP), BX
	VBROADCASTSS floor+72(FP), Z23
	SHLQ $2, R12          // plane stride, bytes
	LEAQ (SI)(R10*4), R13 // the second plane's kernel
	VBROADCASTSS (BX), Z20
	CMPQ AX, $2
	JLT  zg1
	VBROADCASTSS 4(BX), Z21
	CMPQ AX, $2
	JEQ  zg2
	VBROADCASTSS 8(BX), Z22
	LEAQ (R13)(R10*4), BX // the third plane's kernel

zg3:
	ZZERO(Z8, Z9, Z10, Z11)
	ZZERO(Z12, Z13, Z14, Z15)
	ZZERO(Z16, Z17, Z18, Z19)
	XORQ CX, CX

zg3tap:
	ZFRAME
	ZTAP(SI, Z8, Z9, Z10, Z11)
	ZTAP(R13, Z12, Z13, Z14, Z15)
	ZTAP(BX, Z16, Z17, Z18, Z19)
	INCQ CX
	CMPQ CX, R10
	JLT  zg3tap
	ZOUT(Z20, Z8, Z9, Z10, Z11, DX)
	LEAQ (DX)(R12*1), AX
	ZOUT(Z21, Z12, Z13, Z14, Z15, AX)
	LEAQ (DX)(R12*2), AX
	ZOUT(Z22, Z16, Z17, Z18, Z19, AX)
	ADDQ $256, DX
	ADDQ $256, DI
	DECQ R11
	JNZ  zg3
	VZEROUPPER
	RET

zg2:
	ZZERO(Z8, Z9, Z10, Z11)
	ZZERO(Z12, Z13, Z14, Z15)
	XORQ CX, CX

zg2tap:
	ZFRAME
	ZTAP(SI, Z8, Z9, Z10, Z11)
	ZTAP(R13, Z12, Z13, Z14, Z15)
	INCQ CX
	CMPQ CX, R10
	JLT  zg2tap
	ZOUT(Z20, Z8, Z9, Z10, Z11, DX)
	LEAQ (DX)(R12*1), AX
	ZOUT(Z21, Z12, Z13, Z14, Z15, AX)
	ADDQ $256, DX
	ADDQ $256, DI
	DECQ R11
	JNZ  zg2
	VZEROUPPER
	RET

zg1:
	ZZERO(Z8, Z9, Z10, Z11)
	XORQ CX, CX

zg1tap:
	ZFRAME
	ZTAP(SI, Z8, Z9, Z10, Z11)
	INCQ CX
	CMPQ CX, R10
	JLT  zg1tap
	ZOUT(Z20, Z8, Z9, Z10, Z11, DX)
	ADDQ $256, DX
	ADDQ $256, DI
	DECQ R11
	JNZ  zg1
	VZEROUPPER
	RET

// YFRAME points R9 at the frame block of tap CX.
#define YFRAME \
	MOVQ (R8)(CX*8), R9; \
	LEAQ (DI)(R9*4), R9

// YTAP3 loads the frame vector at offset o of the block once and multiplies
// it into the three planes' accumulators with their weights (Y13–Y15).
#define YTAP3(o, a, b, c) \
	VMOVUPS     o(R9), Y12; \
	VFMADD231PS Y12, Y13, a; \
	VFMADD231PS Y12, Y14, b; \
	VFMADD231PS Y12, Y15, c

#define YTAP2(o, a, b) \
	VMOVUPS     o(R9), Y12; \
	VFMADD231PS Y12, Y13, a; \
	VFMADD231PS Y12, Y14, b

// YOUT is ZOUT for a 32-position half block, the floor in Y12.
#define YOUT(b, a0, a1, a2, a3, p) \
	VADDPS  b, a0, a0; \
	VADDPS  b, a1, a1; \
	VADDPS  b, a2, a2; \
	VADDPS  b, a3, a3; \
	VMAXPS  a0, Y12, a0; \
	VMAXPS  a1, Y12, a1; \
	VMAXPS  a2, Y12, a2; \
	VMAXPS  a3, Y12, a3; \
	VMOVUPS a0, (p); \
	VMOVUPS a1, 32(p); \
	VMOVUPS a2, 64(p); \
	VMOVUPS a3, 96(p)

#define YZERO(a0, a1, a2, a3) \
	VXORPS a0, a0, a0; \
	VXORPS a1, a1, a1; \
	VXORPS a2, a2, a2; \
	VXORPS a3, a3, a3

// func tapConvAVX2(planes, frame, w *float32, off *int, taps, blocks, group, stride int, bias *float32, floor float32)
//
// tapConvAVX512 in 32-position half blocks of four YMM per plane, which is
// what sixteen registers hold for a group of three: twelve accumulators
// (Y0–Y11), each frame vector loaded once per tap into Y12 and multiplied by
// the group's weights in Y13–Y15. The bias and floor are broadcast after the
// taps, into the registers the taps used. The operations and their operand
// roles are tapConvAVX512's.
TEXT ·tapConvAVX2(SB), NOSPLIT, $0-76
	MOVQ planes+0(FP), DX
	MOVQ frame+8(FP), DI
	MOVQ w+16(FP), SI
	MOVQ off+24(FP), R8
	MOVQ taps+32(FP), R10
	MOVQ blocks+40(FP), R11
	MOVQ group+48(FP), AX
	MOVQ stride+56(FP), R12
	SHLQ $2, R12          // plane stride, bytes
	SHLQ $1, R11          // half blocks
	LEAQ (SI)(R10*4), R13 // the second plane's kernel
	LEAQ (R13)(R10*4), BX // the third plane's kernel
	CMPQ AX, $2
	JLT  yg1
	JEQ  yg2

yg3:
	YZERO(Y0, Y1, Y2, Y3)
	YZERO(Y4, Y5, Y6, Y7)
	YZERO(Y8, Y9, Y10, Y11)
	XORQ CX, CX

yg3tap:
	YFRAME
	VBROADCASTSS (SI)(CX*4), Y13
	VBROADCASTSS (R13)(CX*4), Y14
	VBROADCASTSS (BX)(CX*4), Y15
	YTAP3(0, Y0, Y4, Y8)
	YTAP3(32, Y1, Y5, Y9)
	YTAP3(64, Y2, Y6, Y10)
	YTAP3(96, Y3, Y7, Y11)
	INCQ CX
	CMPQ CX, R10
	JLT  yg3tap
	MOVQ bias+64(FP), R9
	VBROADCASTSS floor+72(FP), Y12
	VBROADCASTSS (R9), Y13
	VBROADCASTSS 4(R9), Y14
	VBROADCASTSS 8(R9), Y15
	YOUT(Y13, Y0, Y1, Y2, Y3, DX)
	LEAQ (DX)(R12*1), AX
	YOUT(Y14, Y4, Y5, Y6, Y7, AX)
	LEAQ (DX)(R12*2), AX
	YOUT(Y15, Y8, Y9, Y10, Y11, AX)
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ R11
	JNZ  yg3
	VZEROUPPER
	RET

yg2:
	YZERO(Y0, Y1, Y2, Y3)
	YZERO(Y4, Y5, Y6, Y7)
	XORQ CX, CX

yg2tap:
	YFRAME
	VBROADCASTSS (SI)(CX*4), Y13
	VBROADCASTSS (R13)(CX*4), Y14
	YTAP2(0, Y0, Y4)
	YTAP2(32, Y1, Y5)
	YTAP2(64, Y2, Y6)
	YTAP2(96, Y3, Y7)
	INCQ CX
	CMPQ CX, R10
	JLT  yg2tap
	MOVQ bias+64(FP), R9
	VBROADCASTSS floor+72(FP), Y12
	VBROADCASTSS (R9), Y13
	VBROADCASTSS 4(R9), Y14
	YOUT(Y13, Y0, Y1, Y2, Y3, DX)
	LEAQ (DX)(R12*1), AX
	YOUT(Y14, Y4, Y5, Y6, Y7, AX)
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ R11
	JNZ  yg2
	VZEROUPPER
	RET

yg1:
	YZERO(Y0, Y1, Y2, Y3)
	XORQ CX, CX

yg1tap:
	YFRAME
	VBROADCASTSS (SI)(CX*4), Y13
	VFMADD231PS  (R9), Y13, Y0
	VFMADD231PS  32(R9), Y13, Y1
	VFMADD231PS  64(R9), Y13, Y2
	VFMADD231PS  96(R9), Y13, Y3
	INCQ CX
	CMPQ CX, R10
	JLT  yg1tap
	MOVQ bias+64(FP), R9
	VBROADCASTSS floor+72(FP), Y12
	VBROADCASTSS (R9), Y13
	YOUT(Y13, Y0, Y1, Y2, Y3, DX)
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ R11
	JNZ  yg1
	VZEROUPPER
	RET

// poolIdx holds, as bytes, the VPERMT2PS indices that pick the even and then
// the odd floats out of the 32 a pair of ZMM registers hold.
DATA poolIdx<>+0(SB)/8, $0x0E0C0A0806040200
DATA poolIdx<>+8(SB)/8, $0x1E1C1A1816141210
DATA poolIdx<>+16(SB)/8, $0x0F0D0B0907050301
DATA poolIdx<>+24(SB)/8, $0x1F1D1B1917151311
GLOBL poolIdx<>(SB), RODATA|NOPTR, $32

// laneMask is eight set int32 lanes and then eight clear ones: the 32 bytes
// at laneMask<>+32−4c are a VMASKMOVPS mask of the first c lanes, c ≤ 8.
DATA laneMask<>+0(SB)/8, $-1
DATA laneMask<>+8(SB)/8, $-1
DATA laneMask<>+16(SB)/8, $-1
DATA laneMask<>+24(SB)/8, $-1
DATA laneMask<>+32(SB)/8, $0
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
GLOBL laneMask<>(SB), RODATA|NOPTR, $64

// ZPOOL pools one chunk of sixteen windows: the top row's 32 inputs in
// Z0:Z1, the bottom row's in Z2:Z3, the maxima to Z4. Even and odd lanes
// split apart (VPERMT2PS), best = top[x0], then best = max(v, best) for v =
// top[x0+1], bot[x0], bot[x0+1] — VMAXPS with v as first source and best as
// second, which returns best when either is NaN or both are zeros: the Go
// loop's `if v > best { best = v }`.
#define ZPOOL \
	VMOVAPS   Z0, Z4; \
	VPERMT2PS Z1, Z30, Z4; \
	VPERMT2PS Z1, Z31, Z0; \
	VMOVAPS   Z2, Z5; \
	VPERMT2PS Z3, Z30, Z5; \
	VPERMT2PS Z3, Z31, Z2; \
	VMAXPS    Z4, Z0, Z4; \
	VMAXPS    Z4, Z5, Z4; \
	VMAXPS    Z4, Z2, Z4

// func maxPool2AVX512(dst, src *float32, w, outW, rows int)
//
// 2×2 stride-2 max-pooling of rows output rows of outW values (stored back
// to back at dst), output row r from the input rows at src + 2r·w and src +
// (2r+1)·w: sixteen outputs per chunk, the row's last chunk of outW mod 16
// outputs under masks — its loads are masked, so nothing past the row pair
// is read, and its store is masked. rows ≥ 1.
TEXT ·maxPool2AVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ outW+24(FP), BX
	MOVQ rows+32(FP), R11
	SHLQ $2, R8 // input row stride, bytes
	VPMOVZXBD poolIdx<>+0(SB), Z30
	VPMOVZXBD poolIdx<>+16(SB), Z31
	MOVQ BX, CX
	ANDQ $15, CX // the outputs of the last chunk
	MOVQ CX, AX
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1 // their lanes
	ADDQ CX, CX
	MOVQ $1, DX
	SHLQ CX, DX
	DECQ DX
	KMOVW DX, K2 // their inputs' lanes in the first vector of a row
	SHRQ $16, DX
	KMOVW DX, K3 // and in the second
	SHRQ $4, BX  // whole chunks

zprow:
	MOVQ  SI, R9
	MOVQ  BX, R10
	TESTQ R10, R10
	JZ    zptail

zpchunk:
	VMOVUPS (R9), Z0
	VMOVUPS 64(R9), Z1
	VMOVUPS (R9)(R8*1), Z2
	VMOVUPS 64(R9)(R8*1), Z3
	ZPOOL
	VMOVUPS Z4, (DI)
	ADDQ    $128, R9
	ADDQ    $64, DI
	DECQ    R10
	JNZ     zpchunk

zptail:
	TESTQ     AX, AX
	JZ        zpnext
	VMOVUPS.Z (R9), K2, Z0
	VMOVUPS.Z 64(R9), K3, Z1
	VMOVUPS.Z (R9)(R8*1), K2, Z2
	VMOVUPS.Z 64(R9)(R8*1), K3, Z3
	ZPOOL
	VMOVUPS   Z4, K1, (DI)
	LEAQ      (DI)(AX*4), DI

zpnext:
	LEAQ (SI)(R8*2), SI
	DECQ R11
	JNZ  zprow
	VZEROUPPER
	RET

// YPOOL is ZPOOL for eight windows: the top row's 16 inputs in Y0:Y1, the
// bottom row's in Y2:Y3. VSHUFPS splits even and odd lanes within each
// 128-bit half, which leaves the windows in the order 0 1 4 5 2 3 6 7; the
// maxima are taken in that order, lane by lane as ZPOOL takes them, and
// VPERMPD puts the pairs back in order.
#define YPOOL \
	VSHUFPS $0x88, Y1, Y0, Y4; \
	VSHUFPS $0xDD, Y1, Y0, Y5; \
	VSHUFPS $0x88, Y3, Y2, Y6; \
	VSHUFPS $0xDD, Y3, Y2, Y7; \
	VMAXPS  Y4, Y5, Y4; \
	VMAXPS  Y4, Y6, Y4; \
	VMAXPS  Y4, Y7, Y4; \
	VPERMPD $0xD8, Y4, Y4

// func maxPool2AVX2(dst, src *float32, w, outW, rows int)
//
// maxPool2AVX512 in chunks of eight outputs, the last chunk's loads and
// store through VMASKMOVPS.
TEXT ·maxPool2AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ outW+24(FP), BX
	MOVQ rows+32(FP), R11
	SHLQ $2, R8 // input row stride, bytes
	MOVQ BX, AX
	ANDQ $7, AX // the outputs of the last chunk
	LEAQ laneMask<>+32(SB), R12
	MOVQ AX, R9
	SHLQ $2, R9
	MOVQ R12, R10
	SUBQ R9, R10
	VMOVUPS (R10), Y13 // their lanes
	LEAQ (AX)(AX*1), R9
	MOVQ $8, R10
	CMPQ R9, R10
	CMOVQLT R9, R10 // their inputs: this many in the first vector of a row
	SUBQ R10, R9    // and the rest in the second
	SHLQ $2, R10
	MOVQ R12, R13
	SUBQ R10, R13
	VMOVUPS (R13), Y14
	SHLQ $2, R9
	MOVQ R12, R13
	SUBQ R9, R13
	VMOVUPS (R13), Y15
	SHRQ $3, BX // whole chunks

yprow:
	MOVQ  SI, R9
	MOVQ  BX, R10
	TESTQ R10, R10
	JZ    yptail

ypchunk:
	VMOVUPS (R9), Y0
	VMOVUPS 32(R9), Y1
	VMOVUPS (R9)(R8*1), Y2
	VMOVUPS 32(R9)(R8*1), Y3
	YPOOL
	VMOVUPS Y4, (DI)
	ADDQ    $64, R9
	ADDQ    $32, DI
	DECQ    R10
	JNZ     ypchunk

yptail:
	TESTQ      AX, AX
	JZ         ypnext
	VMASKMOVPS (R9), Y14, Y0
	VMASKMOVPS 32(R9), Y15, Y1
	VMASKMOVPS (R9)(R8*1), Y14, Y2
	VMASKMOVPS 32(R9)(R8*1), Y15, Y3
	YPOOL
	VMASKMOVPS Y4, Y13, (DI)
	LEAQ       (DI)(AX*4), DI

ypnext:
	LEAQ (SI)(R8*2), SI
	DECQ R11
	JNZ  yprow
	VZEROUPPER
	RET

// func compactRowsAVX512(dst, src *float32, rows, w, stride int)
//
// Copies rows rows of w floats, stride floats apart from src, to dst back to
// back: sixteen floats a move, a row's last w mod 16 under a mask on the
// load and the store, so nothing past a row is read or written. Moves only:
// every bit pattern survives. rows ≥ 1.
TEXT ·compactRowsAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R11
	MOVQ w+24(FP), BX
	MOVQ stride+32(FP), R8
	SHLQ $2, R8
	MOVQ BX, CX
	ANDQ $15, CX
	MOVQ CX, AX
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1 // a row's last, partial vector
	SHRQ $4, BX  // whole vectors a row

zcrow:
	MOVQ  SI, R9
	MOVQ  BX, R10
	TESTQ R10, R10
	JZ    zctail

zcvec:
	VMOVUPS (R9), Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, R9
	ADDQ    $64, DI
	DECQ    R10
	JNZ     zcvec

zctail:
	TESTQ     AX, AX
	JZ        zcnext
	VMOVUPS.Z (R9), K1, Z0
	VMOVUPS   Z0, K1, (DI)
	LEAQ      (DI)(AX*4), DI

zcnext:
	ADDQ R8, SI
	DECQ R11
	JNZ  zcrow
	VZEROUPPER
	RET

// func compactRowsAVX2(dst, src *float32, rows, w, stride int)
//
// compactRowsAVX512 eight floats a move, the partial vector through
// VMASKMOVPS.
TEXT ·compactRowsAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R11
	MOVQ w+24(FP), BX
	MOVQ stride+32(FP), R8
	SHLQ $2, R8
	MOVQ BX, AX
	ANDQ $7, AX
	LEAQ laneMask<>+32(SB), R9
	MOVQ AX, R10
	SHLQ $2, R10
	SUBQ R10, R9
	VMOVUPS (R9), Y1 // a row's last, partial vector
	SHRQ $3, BX      // whole vectors a row

ycrow:
	MOVQ  SI, R9
	MOVQ  BX, R10
	TESTQ R10, R10
	JZ    yctail

ycvec:
	VMOVUPS (R9), Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    R10
	JNZ     ycvec

yctail:
	TESTQ      AX, AX
	JZ         ycnext
	VMASKMOVPS (R9), Y1, Y0
	VMASKMOVPS Y0, Y1, (DI)
	LEAQ       (DI)(AX*4), DI

ycnext:
	ADDQ R8, SI
	DECQ R11
	JNZ  ycrow
	VZEROUPPER
	RET

// ZROW points DX at coefficient AX's row of the chunk — b (R12) + 4·off[AX]
// + the chunk's byte offset SI — and broadcasts the coefficient to Z8; the
// caller then takes it into each accumulator with one VFMADD231PS, the row
// as the memory operand: the micro-kernel's acc = fma(a, b, acc).
#define ZROW \
	MOVQ         (R8)(AX*8), DX; \
	LEAQ         (R12)(DX*4), DX; \
	ADDQ         SI, DX; \
	VBROADCASTSS (R9)(AX*4), Z8

// func gemvBlockAVX512(c, b *float32, n int, off *int, coef *float32, cnt, accumulate int)
//
// One depth block of gemvRow: for each column j of c (n ≥ 1 of them), an
// accumulator starts at +0 and takes acc = fma(coef[i], b[off[i]+j], acc)
// for i in [0, cnt), cnt ≥ 0; then c[j] = acc, or c[j] = acc + c[j] when
// accumulate is 1 (tileTail's VADDPS, the accumulator as first source).
// The accumulators stay in registers for the whole block: eight vectors
// (128 columns) at a time, then one, then the last n mod 16 columns under a
// mask on every load and on the store, so nothing past a row is read.
TEXT ·gemvBlockAVX512(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), R12
	MOVQ n+16(FP), BX
	MOVQ off+24(FP), R8
	MOVQ coef+32(FP), R9
	MOVQ cnt+40(FP), R10
	MOVQ accumulate+48(FP), R11
	MOVQ BX, CX
	ANDQ $15, CX
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1 // the last, partial vector
	XORQ SI, SI  // byte offset of the chunk in a row and in c

zg8:
	CMPQ   BX, $128
	JLT    zg1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    zg8w

zg8p:
	ZROW
	VFMADD231PS (DX), Z8, Z0
	VFMADD231PS 64(DX), Z8, Z1
	VFMADD231PS 128(DX), Z8, Z2
	VFMADD231PS 192(DX), Z8, Z3
	VFMADD231PS 256(DX), Z8, Z4
	VFMADD231PS 320(DX), Z8, Z5
	VFMADD231PS 384(DX), Z8, Z6
	VFMADD231PS 448(DX), Z8, Z7
	INCQ        AX
	CMPQ        AX, R10
	JLT         zg8p

zg8w:
	LEAQ  (DI)(SI*1), DX
	TESTQ R11, R11
	JZ    zg8s
	VADDPS (DX), Z0, Z0
	VADDPS 64(DX), Z1, Z1
	VADDPS 128(DX), Z2, Z2
	VADDPS 192(DX), Z3, Z3
	VADDPS 256(DX), Z4, Z4
	VADDPS 320(DX), Z5, Z5
	VADDPS 384(DX), Z6, Z6
	VADDPS 448(DX), Z7, Z7

zg8s:
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	VMOVUPS Z2, 128(DX)
	VMOVUPS Z3, 192(DX)
	VMOVUPS Z4, 256(DX)
	VMOVUPS Z5, 320(DX)
	VMOVUPS Z6, 384(DX)
	VMOVUPS Z7, 448(DX)
	ADDQ    $512, SI
	SUBQ    $128, BX
	JMP     zg8

zg1:
	CMPQ   BX, $16
	JLT    zgt
	VPXORD Z0, Z0, Z0
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    zg1w

zg1p:
	ZROW
	VFMADD231PS (DX), Z8, Z0
	INCQ        AX
	CMPQ        AX, R10
	JLT         zg1p

zg1w:
	LEAQ   (DI)(SI*1), DX
	TESTQ  R11, R11
	JZ     zg1s
	VADDPS (DX), Z0, Z0

zg1s:
	VMOVUPS Z0, (DX)
	ADDQ    $64, SI
	SUBQ    $16, BX
	JMP     zg1

zgt:
	TESTQ  BX, BX
	JZ     zgdone
	VPXORD Z0, Z0, Z0
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    zgtw

zgtp:
	ZROW
	VFMADD231PS (DX), Z8, K1, Z0
	INCQ        AX
	CMPQ        AX, R10
	JLT         zgtp

zgtw:
	LEAQ      (DI)(SI*1), DX
	TESTQ     R11, R11
	JZ        zgts
	VMOVUPS.Z (DX), K1, Z9
	VADDPS    Z9, Z0, Z0

zgts:
	VMOVUPS Z0, K1, (DX)

zgdone:
	VZEROUPPER
	RET

// YROW is ZROW for the AVX2 body: the coefficient broadcast to Y8.
#define YROW \
	MOVQ         (R8)(AX*8), DX; \
	LEAQ         (R12)(DX*4), DX; \
	ADDQ         SI, DX; \
	VBROADCASTSS (R9)(AX*4), Y8

// func gemvBlockAVX2(c, b *float32, n int, off *int, coef *float32, cnt, accumulate int)
//
// gemvBlockAVX512 in YMM vectors: eight of them (64 columns) at a time,
// then one, then the last n mod 8 columns through VMASKMOVPS.
TEXT ·gemvBlockAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), R12
	MOVQ n+16(FP), BX
	MOVQ off+24(FP), R8
	MOVQ coef+32(FP), R9
	MOVQ cnt+40(FP), R10
	MOVQ accumulate+48(FP), R11
	MOVQ BX, CX
	ANDQ $7, CX
	SHLQ $2, CX
	LEAQ laneMask<>+32(SB), DX
	SUBQ CX, DX
	VMOVUPS (DX), Y15 // the last, partial vector
	XORQ SI, SI       // byte offset of the chunk in a row and in c

yg8:
	CMPQ   BX, $64
	JLT    yg1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    yg8w
	PCALIGN $32 // the loop head starts a 32-byte fetch block

yg8p:
	YROW
	VFMADD231PS (DX), Y8, Y0
	VFMADD231PS 32(DX), Y8, Y1
	VFMADD231PS 64(DX), Y8, Y2
	VFMADD231PS 96(DX), Y8, Y3
	VFMADD231PS 128(DX), Y8, Y4
	VFMADD231PS 160(DX), Y8, Y5
	VFMADD231PS 192(DX), Y8, Y6
	VFMADD231PS 224(DX), Y8, Y7
	INCQ        AX
	CMPQ        AX, R10
	JLT         yg8p

yg8w:
	LEAQ  (DI)(SI*1), DX
	TESTQ R11, R11
	JZ    yg8s
	VADDPS (DX), Y0, Y0
	VADDPS 32(DX), Y1, Y1
	VADDPS 64(DX), Y2, Y2
	VADDPS 96(DX), Y3, Y3
	VADDPS 128(DX), Y4, Y4
	VADDPS 160(DX), Y5, Y5
	VADDPS 192(DX), Y6, Y6
	VADDPS 224(DX), Y7, Y7

yg8s:
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	ADDQ    $256, SI
	SUBQ    $64, BX
	JMP     yg8

yg1:
	CMPQ   BX, $8
	JLT    ygt
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    yg1w

yg1p:
	YROW
	VFMADD231PS (DX), Y8, Y0
	INCQ        AX
	CMPQ        AX, R10
	JLT         yg1p

yg1w:
	LEAQ   (DI)(SI*1), DX
	TESTQ  R11, R11
	JZ     yg1s
	VADDPS (DX), Y0, Y0

yg1s:
	VMOVUPS Y0, (DX)
	ADDQ    $32, SI
	SUBQ    $8, BX
	JMP     yg1

ygt:
	TESTQ  BX, BX
	JZ     ygdone
	VXORPS Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R10
	JGE    ygtw

ygtp:
	YROW
	VMASKMOVPS  (DX), Y15, Y9
	VFMADD231PS Y9, Y8, Y0
	INCQ        AX
	CMPQ        AX, R10
	JLT         ygtp

ygtw:
	LEAQ       (DI)(SI*1), DX
	TESTQ      R11, R11
	JZ         ygts
	VMASKMOVPS (DX), Y15, Y9
	VADDPS     Y9, Y0, Y0

ygts:
	VMASKMOVPS Y0, Y15, (DX)

ygdone:
	VZEROUPPER
	RET
