//go:build amd64

#include "textflag.h"

// The vector bodies of pixelStats's three per-pixel passes (hardness.go,
// hardness_amd64.go), each in an AVX-512 and an AVX2 form, picked by the
// width of tensor's active vector loops, whose CPUID gate covers them:
// AVX-512F instructions only, or AVX2 and POPCNT. Every lane does the IEEE
// operations the Go body (goStats) does for its pixel. A pass compacts what
// it gathers to the front of a vector, in raster order, and stores the whole
// vector at the running count, so each buffer has a vector of slack past its
// last entry. The two float64 sums, which must stay in raster order, run as
// one scalar chain each over the terms so gathered, in the frame of the
// pass: a term left out (a dark centre's, a zero pixel's) is +0 or −0, which
// changes no partial sum, since both sums start at +0 and never become −0.

DATA hardConst<>+0(SB)/4, $0x3f800000  // 1.0, the clamp's ceiling
DATA hardConst<>+4(SB)/4, $0x43800000  // 256.0, buckets per unit
DATA hardConst<>+8(SB)/4, $0x7fffffff  // a float32's magnitude
DATA hardConst<>+12(SB)/4, $0x7f800000 // +Inf: a larger magnitude is a NaN
DATA hardConst<>+16(SB)/4, $0x80000000 // a float32's sign
DATA hardConst<>+24(SB)/8, $0x4010000000000000 // 4.0
DATA hardConst<>+32(SB)/8, $0x7fffffffffffffff // a float64's magnitude
DATA hardConst<>+40(SB)/8, $0x3fa999999999999a // 0.05, the dark-centre bound
GLOBL hardConst<>(SB), RODATA|NOPTR, $48

// BUCKET512 turns the sixteen pixels in z into their buckets, on the bits as
// bucketOf does it: a signed max with 0 (Z5) takes every negative (−0
// included) to +0, a signed min with 1.0 (Z1) takes everything above 1.0
// (+Inf and positive NaNs included) to 1.0, then times 256 (Z2), truncated.
#define BUCKET512(z) \
	VPMAXSD    Z5, z, z; \
	VPMINSD    Z1, z, z; \
	VMULPS     Z2, z, z; \
	VCVTTPS2DQ z, z

// BUCKET256 is BUCKET512 for eight pixels, with the constants in Y5, Y1 and
// Y2.
#define BUCKET256(y) \
	VPMAXSD    Y5, y, y; \
	VPMINSD    Y1, y, y; \
	VMULPS     Y2, y, y; \
	VCVTTPS2DQ y, y

// func bucketsAVX512(img *float32, lit *uint16) (n, nan int)
//
// The buckets (bucketOf) of the 784 pixels that are not in bucket 0,
// compressed to lit[:n] in raster order, sixteen pixels a step. nan is
// nonzero if any pixel's magnitude is above +Inf's.
TEXT ·bucketsAVX512(SB), NOSPLIT, $0-32
	MOVQ         img+0(FP), SI
	MOVQ         lit+8(FP), DI
	XORQ         DX, DX
	VPBROADCASTD hardConst<>+0(SB), Z1
	VBROADCASTSS hardConst<>+4(SB), Z2
	VPBROADCASTD hardConst<>+8(SB), Z3
	VPXORD       Z4, Z4, Z4            // the largest magnitude
	VPXORD       Z5, Z5, Z5
	MOVQ         $49, CX

zbucket:
	VMOVDQU32   (SI), Z0
	VPANDD      Z3, Z0, Z6
	VPMAXUD     Z6, Z4, Z4
	BUCKET512(Z0)
	VPTESTMD    Z0, Z0, K2
	VPCOMPRESSD Z0, K2, Z7
	VPMOVDW     Z7, (DI)(DX*2)
	KMOVW       K2, AX
	POPCNTL     AX, AX
	ADDQ        AX, DX
	ADDQ        $64, SI
	DECQ        CX
	JNZ         zbucket
	MOVQ         DX, n+16(FP)
	VPBROADCASTD hardConst<>+12(SB), Z1
	VPCMPUD      $6, Z1, Z4, K1
	KMOVW        K1, AX
	MOVQ         AX, nan+24(FP)
	VZEROUPPER
	RET

// func bucketsAVX2(img *float32, bucket *uint16) (nan int)
//
// The buckets of all 784 pixels to bucket, sixteen a step in two
// eight-lane halves, narrowed to uint16 by VPACKUSDW (every bucket fits)
// and put back in order by VPERMQ. nan as bucketsAVX512's.
TEXT ·bucketsAVX2(SB), NOSPLIT, $0-24
	MOVQ         img+0(FP), SI
	MOVQ         bucket+8(FP), DI
	VPBROADCASTD hardConst<>+0(SB), Y1
	VBROADCASTSS hardConst<>+4(SB), Y2
	VPBROADCASTD hardConst<>+8(SB), Y3
	VPXOR        Y4, Y4, Y4
	VPXOR        Y5, Y5, Y5
	MOVQ         $49, CX

ybucket:
	VMOVDQU   (SI), Y0
	VMOVDQU   32(SI), Y7
	VPAND     Y3, Y0, Y6
	VPMAXUD   Y6, Y4, Y4
	VPAND     Y3, Y7, Y6
	VPMAXUD   Y6, Y4, Y4
	BUCKET256(Y0)
	BUCKET256(Y7)
	VPACKUSDW Y7, Y0, Y0
	VPERMQ    $0xd8, Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       ybucket
	VPBROADCASTD hardConst<>+12(SB), Y1
	VPCMPGTD     Y1, Y4, Y4 // magnitudes compare as signed
	VMOVMSKPS    Y4, AX
	MOVQ         AX, nan+16(FP)
	VZEROUPPER
	RET

// The Laplacian passes widen the image a row at a time into a ring of three
// float64 rows at the start of the frame (224 bytes each; the terms follow),
// so each pixel is converted once and the rows stay in L1: at row y, SI
// points at row y−1, DX at row y, BX at row y+1, R9 and R10 one pixel left
// and right of DX, R12 at the image row to widen next.

// WIDEN512 converts the image row at R12 into the buffer at BX and moves
// R12 to the next row.
#define WIDEN512 \
	VCVTPS2PD (R12), Z0; \
	VCVTPS2PD 32(R12), Z1; \
	VCVTPS2PD 64(R12), Z2; \
	VCVTPS2PD 80(R12), Z3; \
	VMOVUPD   Z0, (BX); \
	VMOVUPD   Z1, 64(BX); \
	VMOVUPD   Z2, 128(BX); \
	VMOVUPD   Z3, 160(BX); \
	ADDQ      $112, R12

// WIDEN256 is WIDEN512 four floats a move.
#define WIDEN256 \
	VCVTPS2PD (R12), Y0; \
	VCVTPS2PD 16(R12), Y1; \
	VCVTPS2PD 32(R12), Y2; \
	VCVTPS2PD 48(R12), Y3; \
	VMOVUPD   Y0, (BX); \
	VMOVUPD   Y1, 32(BX); \
	VMOVUPD   Y2, 64(BX); \
	VMOVUPD   Y3, 96(BX); \
	VCVTPS2PD 64(R12), Y0; \
	VCVTPS2PD 80(R12), Y1; \
	VCVTPS2PD 96(R12), Y2; \
	VMOVUPD   Y0, 128(BX); \
	VMOVUPD   Y1, 160(BX); \
	VMOVUPD   Y2, 192(BX); \
	ADDQ      $112, R12

// RINGSTART widens image rows 0 and 1 (R12) into the ring's first two
// buffers (frame at R13) and points SI, DX and BX at rows 0, 1 and the
// buffer row 2 goes to, with CX at 0 and R8 counting the 26 rows.
#define RINGSTART(widen) \
	MOVQ R13, BX; \
	widen; \
	LEAQ 224(R13), BX; \
	widen; \
	MOVQ R13, SI; \
	LEAQ 224(R13), DX; \
	LEAQ 448(R13), BX; \
	XORQ CX, CX; \
	MOVQ $26, R8

// RINGNEXT rotates the ring a row down, the buffer of the row that fell
// out becoming the next row's, and loops to label l.
#define RINGNEXT(l) \
	MOVQ SI, AX; \
	MOVQ DX, SI; \
	MOVQ BX, DX; \
	MOVQ AX, BX; \
	DECQ R8; \
	JNZ  l

// LAP512 is eight centres of the row at DX, at byte offset off, under the
// lane mask km: l = 4c − up − dn − left − right left to right, each VSUBPD
// with the running value as first source, as the Go body's expression; the
// term |l| of each inked lane, !(c < 0.05) (0.05 NGT_US c: a NaN centre
// counts), compressed and stored at (DI)(CX*8), CX advanced past them.
#define LAP512(off, km) \
	VMULPD      off(DX), Z28, Z5; \
	VSUBPD      off(SI), Z5, Z5; \
	VSUBPD      off(BX), Z5, Z5; \
	VSUBPD      off(R9), Z5, Z5; \
	VSUBPD      off(R10), Z5, Z5; \
	VPANDQ      Z29, Z5, Z5; \
	VCMPPD      $0x0a, off(DX), Z30, km, K1; \
	VCOMPRESSPD Z5, K1, Z6; \
	VMOVUPD     Z6, (DI)(CX*8); \
	KMOVW       K1, AX; \
	POPCNTL     AX, AX; \
	ADDQ        AX, CX

// func lapAVX512(img *float32) (lap float64, inked int)
//
// The Laplacian sum of the 26×26 interior, and the number of inked
// centres. Their terms (676 and a vector, after the ring) are added in
// raster order from +0, one VADDSD each with the sum as first source: the
// Go body's lap += term, which adds +0 for a dark centre. Each row's
// centres are x = 1…8, 9…16, 17…24, then 19…26 with only 25 and 26 taken.
TEXT ·lapAVX512(SB), 0, $6144-24
	MOVQ         img+0(FP), R12
	MOVQ         SP, R13
	LEAQ         672(R13), DI // the terms
	VBROADCASTSD hardConst<>+24(SB), Z28
	VPBROADCASTQ hardConst<>+32(SB), Z29
	VBROADCASTSD hardConst<>+40(SB), Z30
	MOVL         $0xff, AX
	KMOVW        AX, K7
	MOVL         $0xc0, AX
	KMOVW        AX, K6
	RINGSTART(WIDEN512)
	PCALIGN      $32 // the row loop's head on a 32-byte boundary

zlaprow:
	WIDEN512
	LEAQ -8(DX), R9
	LEAQ 8(DX), R10
	LAP512(8, K7)
	LAP512(72, K7)
	LAP512(136, K7)
	LAP512(152, K6)
	RINGNEXT(zlaprow)
	MOVQ   CX, inked+16(FP)
	VZEROUPPER
	VXORPD X0, X0, X0
	XORQ   R8, R8
	TESTQ  CX, CX
	JZ     zlapdone

zlapsum:
	VADDSD (DI)(R8*8), X0, X0
	INCQ   R8
	CMPQ   R8, CX
	JB     zlapsum

zlapdone:
	VMOVSD X0, lap+8(FP)
	RET

// LAP256 is LAP512 four centres a step. The lane mask is VMOVMSKPS's, two
// bits a float64 lane, km keeping the chunk's new lanes; the inked terms
// are moved to the front by VPERMD through the left-pack table at R14.
#define LAP256(off, km) \
	VMULPD    off(DX), Y12, Y5; \
	VSUBPD    off(SI), Y5, Y5; \
	VSUBPD    off(BX), Y5, Y5; \
	VSUBPD    off(R9), Y5, Y5; \
	VSUBPD    off(R10), Y5, Y5; \
	VANDPD    Y13, Y5, Y5; \
	VCMPPD    $0x0a, off(DX), Y14, Y6; \
	VMOVMSKPS Y6, AX; \
	ANDL      $km, AX; \
	VPMOVZXBD (R14)(AX*8), Y8; \
	VPERMD    Y5, Y8, Y5; \
	VMOVUPD   Y5, (DI)(CX*8); \
	POPCNTL   AX, AX; \
	SHRL      $1, AX; \
	ADDQ      AX, CX

// func lapAVX2(img *float32, pack *uint64) (lap float64, inked int)
//
// lapAVX512 with each row's centres x = 1…4, …, 21…24, then 23…26 with only
// 25 and 26 taken. pack is the left-pack table.
TEXT ·lapAVX2(SB), 0, $6144-32
	MOVQ         img+0(FP), R12
	MOVQ         pack+8(FP), R14
	MOVQ         SP, R13
	LEAQ         672(R13), DI
	VBROADCASTSD hardConst<>+24(SB), Y12
	VBROADCASTSD hardConst<>+32(SB), Y13
	VBROADCASTSD hardConst<>+40(SB), Y14
	RINGSTART(WIDEN256)
	PCALIGN      $32

ylaprow:
	WIDEN256
	LEAQ -8(DX), R9
	LEAQ 8(DX), R10
	LAP256(8, 0xff)
	LAP256(40, 0xff)
	LAP256(72, 0xff)
	LAP256(104, 0xff)
	LAP256(136, 0xff)
	LAP256(168, 0xff)
	LAP256(184, 0xf0)
	RINGNEXT(ylaprow)
	MOVQ   CX, inked+24(FP)
	VZEROUPPER
	VXORPD X0, X0, X0
	XORQ   R8, R8
	TESTQ  CX, CX
	JZ     ylapdone

ylapsum:
	VADDSD (DI)(R8*8), X0, X0
	INCQ   R8
	CMPQ   R8, CX
	JB     ylapsum

ylapdone:
	VMOVSD X0, lap+16(FP)
	RET

// func gatherAVX512(img *float32, b50, top int, keys50, keys95 *uint32) (n50, n95 int, bg float64)
//
// One pass over the pixels in raster order, sixteen a step, their buckets
// recomputed: the order keys (orderKey) of the pixels in bucket b50
// compressed to keys50[:n50] and of those in bucket top to keys95[:n95]
// (top −1 matches no bucket), and bg, the sum of the pixels below b50.
// Those that are not a zero of either sign are compressed to the frame (at
// most 392 and a vector), then added in raster order from +0, each
// converted on its own: the Go body's bg += float64(v).
TEXT ·gatherAVX512(SB), 0, $1632-64
	MOVQ         img+0(FP), SI
	MOVQ         b50+8(FP), AX
	VPBROADCASTD AX, Z20
	MOVQ         top+16(FP), AX
	VPBROADCASTD AX, Z21
	MOVQ         keys50+24(FP), DI
	MOVQ         keys95+32(FP), R8
	MOVQ         SP, R9
	VPBROADCASTD hardConst<>+0(SB), Z1
	VBROADCASTSS hardConst<>+4(SB), Z2
	VPBROADCASTD hardConst<>+16(SB), Z22
	VPBROADCASTD hardConst<>+8(SB), Z23
	VPXORD       Z5, Z5, Z5
	XORQ         CX, CX
	XORQ         DX, DX
	XORQ         R10, R10
	MOVQ         $49, R11

zgather:
	VMOVDQU32   (SI), Z0
	VMOVDQU32   Z0, Z6
	BUCKET512(Z6)
	VPSRAD      $31, Z0, Z7
	VPORD       Z22, Z7, Z7
	VPXORD      Z0, Z7, Z7
	VPCMPEQD    Z20, Z6, K1
	VPCOMPRESSD Z7, K1, Z3
	VMOVDQU32   Z3, (DI)(CX*4)
	KMOVW       K1, AX
	POPCNTL     AX, AX
	ADDQ        AX, CX
	VPCMPEQD    Z21, Z6, K2
	VPCOMPRESSD Z7, K2, Z4
	VMOVDQU32   Z4, (R8)(DX*4)
	KMOVW       K2, AX
	POPCNTL     AX, AX
	ADDQ        AX, DX
	VPCMPUD     $1, Z20, Z6, K3
	VPTESTMD    Z23, Z0, K3, K3
	VCOMPRESSPS Z0, K3, Z3
	VMOVUPS     Z3, (R9)(R10*4)
	KMOVW       K3, AX
	POPCNTL     AX, AX
	ADDQ        AX, R10
	ADDQ        $64, SI
	DECQ        R11
	JNZ         zgather
	MOVQ        CX, n50+40(FP)
	MOVQ        DX, n95+48(FP)
	VZEROUPPER
	VXORPD X0, X0, X0
	VXORPD X2, X2, X2 // the conversions' upper source, so none waits on the last
	XORQ   R8, R8
	TESTQ  R10, R10
	JZ     zbgdone

zbgsum:
	VCVTSS2SD (R9)(R8*4), X2, X1
	VADDSD    X1, X0, X0
	INCQ      R8
	CMPQ      R8, R10
	JB        zbgsum

zbgdone:
	VMOVSD X0, bg+56(FP)
	RET

// LEFTPACK256 stores the lanes of vector v that the VMOVMSKPS mask in AX
// selects at (dst)(n*4), in order, through the left-pack table at R13, and
// advances n past them.
#define LEFTPACK256(v, dst, n) \
	VPMOVZXBD (R13)(AX*8), Y4; \
	VPERMD    v, Y4, Y4; \
	VMOVDQU   Y4, (dst)(n*4); \
	POPCNTL   AX, AX; \
	ADDQ      AX, n

// func gatherAVX2(img *float32, b50, top int, keys50, keys95 *uint32, pack *uint64) (n50, n95 int, bg float64)
//
// gatherAVX512 eight pixels a step, compacted through the left-pack table.
TEXT ·gatherAVX2(SB), 0, $1632-72
	MOVQ         img+0(FP), SI
	MOVQ         b50+8(FP), AX
	MOVQ         AX, X10
	VPBROADCASTD X10, Y10
	MOVQ         top+16(FP), AX
	MOVQ         AX, X11
	VPBROADCASTD X11, Y11
	MOVQ         keys50+24(FP), DI
	MOVQ         keys95+32(FP), R8
	MOVQ         pack+40(FP), R13
	MOVQ         SP, R9
	VPBROADCASTD hardConst<>+0(SB), Y1
	VBROADCASTSS hardConst<>+4(SB), Y2
	VPBROADCASTD hardConst<>+16(SB), Y12
	VPBROADCASTD hardConst<>+8(SB), Y13
	VPXOR        Y5, Y5, Y5
	XORQ         CX, CX
	XORQ         DX, DX
	XORQ         R10, R10
	MOVQ         $98, R11

ygather:
	VMOVDQU   (SI), Y0
	VMOVDQU   Y0, Y6
	BUCKET256(Y6)
	VPSRAD    $31, Y0, Y7
	VPOR      Y12, Y7, Y7
	VPXOR     Y0, Y7, Y7
	VPCMPEQD  Y10, Y6, Y3
	VMOVMSKPS Y3, AX
	LEFTPACK256(Y7, DI, CX)
	VPCMPEQD  Y11, Y6, Y3
	VMOVMSKPS Y3, AX
	LEFTPACK256(Y7, R8, DX)
	VPCMPGTD  Y6, Y10, Y3 // below b50
	VPAND     Y13, Y0, Y8
	VPCMPEQD  Y5, Y8, Y8  // a zero
	VPANDN    Y3, Y8, Y3
	VMOVMSKPS Y3, AX
	LEFTPACK256(Y0, R9, R10)
	ADDQ      $32, SI
	DECQ      R11
	JNZ       ygather
	MOVQ      CX, n50+48(FP)
	MOVQ      DX, n95+56(FP)
	VZEROUPPER
	VXORPD X0, X0, X0
	VXORPD X2, X2, X2
	XORQ   R8, R8
	TESTQ  R10, R10
	JZ     ybgdone

ybgsum:
	VCVTSS2SD (R9)(R8*4), X2, X1
	VADDSD    X1, X0, X0
	INCQ      R8
	CMPQ      R8, R10
	JB        ybgsum

ybgdone:
	VMOVSD X0, bg+64(FP)
	RET
