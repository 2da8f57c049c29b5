#include "textflag.h"

// The row kernels of softmax and GELU: math.Exp four lanes at a time,
// and what is built on it.
//
// On amd64 math.Exp is math.archExp ($GOROOT/src/math/exp_amd64.s, after
// Shibata's SLEEF method): n = round(x·log2e), a reduction of x by n·ln2
// in two parts, a degree-8 Taylor polynomial of a sixteenth of it, four
// squarings and a multiply by 2^n. It has two bodies: with AVX and FMA
// (math.useFMA) the reduction, the polynomial and the last squaring are
// fused multiply-adds, otherwise every product is rounded before its
// add. A lane here runs the AVX+FMA body's instructions in their order,
// with its constants, so it leaves the bits that body leaves; the
// kernel runs only where math.Exp takes that body, which the caller
// (hasExp) checks at start-up. The fused multiply-adds are archExp's
// own: nothing here fuses what its scalar reference does not.
//
// archExp leaves its main path for a non-finite x, for x above
// 709.78 and where the result's exponent n+1023 falls outside
// [1, 2046] (overflow, denormal, underflow). Each of these rounds x·log2e
// outside [-1022, 1023] — a NaN or ±Inf converts to the integer 0x80000000,
// and x > 709.78 gives n ≥ 1024 — so the one check on n finds them all:
// the softmax kernel stops at a block with such a lane and leaves it to
// math.Exp.

// Every constant fills the four lanes of one 32-byte row.
#define ROW(off, v) DATA expc<>+(off)(SB)/8, v; DATA expc<>+(off+8)(SB)/8, v; DATA expc<>+(off+16)(SB)/8, v; DATA expc<>+(off+24)(SB)/8, v

// archExp's constants, written as it writes them.
ROW(0, $1.4426950408889634073599246810018920)           // log2(e)
ROW(32, $0.69314718055966295651160180568695068359375)   // upper half of ln(2)
ROW(64, $0.28235290563031577122588448175013436025525412068e-12) // lower half
ROW(96, $0.0625)
ROW(128, $2.4801587301587301587e-5)
ROW(160, $1.9841269841269841270e-4)
ROW(192, $1.3888888888888888889e-3)
ROW(224, $8.3333333333333333333e-3)
ROW(256, $4.1666666666666666667e-2)
ROW(288, $1.6666666666666666667e-1)
ROW(320, $0.5)
ROW(352, $1.0)
ROW(384, $2.0)
// The n of archExp's main path: -1022 ≤ n ≤ 1023.
ROW(416, $-1022.0)
ROW(448, $1023.0)
// The exponent bias, as four int32s (read 16 bytes at a time).
ROW(480, $0x000003ff000003ff)
// GELUScalar's and math.tanh's constants.
ROW(512, $0.044715)
ROW(544, $44.014845965556527147994) // 0.5·MAXLOG of math.tanh
ROW(576, $0.625)
ROW(608, $-9.64399179425052238628e-1) // tanhP
ROW(640, $-9.92877231001918586564e1)
ROW(672, $-1.61468768441708447952e3)
ROW(704, $1.12811678491632931402e2) // tanhQ
ROW(736, $2.23548839060100448583e3)
ROW(768, $4.84406305325125486048e3)
ROW(800, $0x7fffffffffffffff) // |x|
ROW(832, $0x8000000000000000) // sign of x
ROW(864, $0.134145)           // 3·0.044715 of geluDF
GLOBL expc<>(SB), RODATA, $896

#define LOG2E expc<>+0(SB)
#define LN2U expc<>+32(SB)
#define LN2L expc<>+64(SB)
#define SIXTEENTH expc<>+96(SB)
#define C8 expc<>+128(SB)
#define C7 expc<>+160(SB)
#define C6 expc<>+192(SB)
#define C5 expc<>+224(SB)
#define C4 expc<>+256(SB)
#define C3 expc<>+288(SB)
#define HALF expc<>+320(SB)
#define ONE expc<>+352(SB)
#define TWO expc<>+384(SB)
#define NMIN expc<>+416(SB)
#define NMAX expc<>+448(SB)
#define BIAS expc<>+480(SB)
#define CUBIC expc<>+512(SB)
#define TANHBIG expc<>+544(SB)
#define TANHMID expc<>+576(SB)
#define P0 expc<>+608(SB)
#define P1 expc<>+640(SB)
#define P2 expc<>+672(SB)
#define Q0 expc<>+704(SB)
#define Q1 expc<>+736(SB)
#define Q2 expc<>+768(SB)
#define ABS expc<>+800(SB)
#define SIGN expc<>+832(SB)
#define SLOPE expc<>+864(SB)

// EXP_N: Y0 = x. Leaves n = round(x·log2e) as four int32s in X2 and as
// float64s in Y1 (CVTSD2SL and CVTSL2SD, lane-wise).
#define EXP_N \
	VMULPD     LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2;        \
	VCVTDQ2PD  X2, Y1

// EXP_OFFPATH sets the bit of BX for each lane whose n is outside
// [-1022, 1023]: archExp would leave its main path there.
#define EXP_OFFPATH \
	VCMPPD    $0x0d, NMIN, Y1, Y4; \
	VCMPPD    $0x02, NMAX, Y1, Y5; \
	VANDPD    Y5, Y4, Y4;          \
	VMOVMSKPD Y4, BX;              \
	XORL      $15, BX

// EXP_FMA: Y0 = x, Y1 = n. Leaves in Y0 archExp's result before its
// multiply by 2^n, clobbering Y3: archExp's avxfma body.
#define EXP_FMA \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      C8, Y3;       \
	VFMADD213PD  C7, Y0, Y3;   \
	VFMADD213PD  C6, Y0, Y3;   \
	VFMADD213PD  C5, Y0, Y3;   \
	VFMADD213PD  C4, Y0, Y3;   \
	VFMADD213PD  C3, Y0, Y3;   \
	VFMADD213PD  HALF, Y0, Y3; \
	VFMADD213PD  ONE, Y0, Y3;  \
	VMULPD       Y3, Y0, Y0;   \
	VADDPD       TWO, Y0, Y3;  \
	VMULPD       Y3, Y0, Y0;   \
	VADDPD       TWO, Y0, Y3;  \
	VMULPD       Y3, Y0, Y0;   \
	VADDPD       TWO, Y0, Y3;  \
	VMULPD       Y3, Y0, Y0;   \
	VADDPD       TWO, Y0, Y3;  \
	VFMADD213PD  ONE, Y3, Y0

// EXP_SCALE: Y0 ·= 2^n for the n of X2 (archExp's lastStep), clobbering
// Y2.
#define EXP_SCALE \
	VPADDD    BIAS, X2, X2; \
	VPMOVZXDQ X2, Y2;       \
	VPSLLQ    $52, Y2, Y2;  \
	VMULPD    Y2, Y0, Y0

// func expShiftSumAVX(dst, src []float64, shift, z float64) (done int, sum float64)
//
// dst[i] = exp(src[i]-shift), four at a time over the whole blocks of
// dst, with sum = z + dst[0] + dst[1] + ... added one element at a time,
// in index order, as the Go loop adds them. It stops before the first
// block with a lane off archExp's main path and returns how many
// elements it wrote, a multiple of four.
TEXT ·expShiftSumAVX(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD shift+48(FP), Y15
	VMOVSD       z+56(FP), X14
	ANDQ         $~3, CX
	XORQ         AX, AX

block:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y15, Y0, Y0
	EXP_N
	EXP_OFFPATH
	JNZ     done
	EXP_FMA
	EXP_SCALE
	VMOVUPD Y0, (DI)(AX*8)
	VADDSD  X0, X14, X14
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X14, X14
	VEXTRACTF128 $1, Y0, X0
	VADDSD  X0, X14, X14
	VUNPCKHPD X0, X0, X1
	VADDSD  X1, X14, X14
	ADDQ    $4, AX
	JMP     block

done:
	MOVQ   AX, done+64(FP)
	VMOVSD X14, sum+72(FP)
	VZEROUPPER
	RET

// GELU_TANH: Y9 = u. Leaves math.Tanh(u) in Y10, clobbering Y0-Y7, Y11
// and Y12. Every lane computes math.tanh's three branches and keeps the
// one its |u| selects: ±1 above 0.5·MAXLOG; 1 - 2/(exp(2|u|)+1), signed
// as u, from 0.625 up; below that the rational approximation. The two
// divisions share one VDIVPD, their operands blended per lane first.
// The exp takes 2|u| on the middle branch's lanes and 0 on the others,
// so it never leaves archExp's main path (2|u| ≤ 88.03, n ≤ 127). The
// small branch does not special-case u = ±0 as math.tanh does: it
// returns +0 for -0 there, which 1+tanh and 1-tanh² cannot tell apart.
#define GELU_TANH \
	VANDPD    ABS, Y9, Y6;           \
	VANDPD    SIGN, Y9, Y7;          \
	VCMPPD    $0x1e, TANHBIG, Y6, Y11; \
	VCMPPD    $0x1d, TANHMID, Y6, Y12; \
	VANDNPD   Y12, Y11, Y12;         \
	VADDPD    Y6, Y6, Y0;            \
	VANDPD    Y12, Y0, Y0;           \
	EXP_N;                           \
	EXP_FMA;                         \
	EXP_SCALE;                       \
	VADDPD    ONE, Y0, Y0;           \
	VMULPD    Y9, Y9, Y1;            \
	VMULPD    P0, Y1, Y2;            \
	VADDPD    P1, Y2, Y2;            \
	VMULPD    Y1, Y2, Y2;            \
	VADDPD    P2, Y2, Y2;            \
	VMULPD    Y1, Y9, Y3;            \
	VMULPD    Y2, Y3, Y3;            \
	VADDPD    Q0, Y1, Y2;            \
	VMULPD    Y1, Y2, Y2;            \
	VADDPD    Q1, Y2, Y2;            \
	VMULPD    Y1, Y2, Y2;            \
	VADDPD    Q2, Y2, Y2;            \
	VBLENDVPD Y12, TWO, Y3, Y3;      \
	VBLENDVPD Y12, Y0, Y2, Y2;       \
	VDIVPD    Y2, Y3, Y3;            \
	VMOVUPD   ONE, Y4;               \
	VSUBPD    Y3, Y4, Y4;            \
	VXORPD    Y7, Y4, Y4;            \
	VADDPD    Y3, Y9, Y3;            \
	VBLENDVPD Y12, Y4, Y3, Y10;      \
	VORPD     ONE, Y7, Y4;           \
	VBLENDVPD Y11, Y4, Y10, Y10

// GELU_U: Y8 = x, Y13 = geluCoef. Leaves u = geluCoef·(x + 0.044715·x·x·x)
// in Y9, GELUScalar's order.
#define GELU_U \
	VMULPD CUBIC, Y8, Y9; \
	VMULPD Y8, Y9, Y9;    \
	VMULPD Y8, Y9, Y9;    \
	VADDPD Y9, Y8, Y9;    \
	VMULPD Y13, Y9, Y9

// func geluAVX(dst, src []float64, coef float64)
//
// dst[i] = GELUScalar(src[i]) = 0.5·x·(1 + tanh(u)), four at a time over
// len(dst), a multiple of four. dst may be src.
TEXT ·geluAVX(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD coef+48(FP), Y13
	XORQ         AX, AX

block:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y8
	GELU_U
	GELU_TANH
	VADDPD  ONE, Y10, Y10
	VMULPD  HALF, Y8, Y0
	VMULPD  Y10, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     block

done:
	VZEROUPPER
	RET

// func geluBackAVX(grad, g, x []float64, coef float64)
//
// grad[i] += g[i]·geluDF(x[i]), four at a time over len(grad), a multiple
// of four, g and x at least as long: geluDF's order, 0.5·(1+t) +
// 0.5·x·(1-t·t)·geluCoef·(1 + 0.134145·x·x) for t = tanh(u).
TEXT ·geluBackAVX(SB), NOSPLIT, $0-80
	MOVQ         grad_base+0(FP), DI
	MOVQ         grad_len+8(FP), CX
	MOVQ         g_base+24(FP), R8
	MOVQ         x_base+48(FP), SI
	VBROADCASTSD coef+72(FP), Y13
	XORQ         AX, AX

block:
	CMPQ    AX, CX
	JGE     done
	VMOVUPD (SI)(AX*8), Y8
	GELU_U
	GELU_TANH
	VMULPD  Y10, Y10, Y0
	VMOVUPD ONE, Y1
	VSUBPD  Y0, Y1, Y1
	VADDPD  ONE, Y10, Y2
	VMULPD  HALF, Y2, Y2
	VMULPD  HALF, Y8, Y3
	VMULPD  Y1, Y3, Y3
	VMULPD  Y13, Y3, Y3
	VMULPD  SLOPE, Y8, Y4
	VMULPD  Y8, Y4, Y4
	VADDPD  ONE, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMULPD  (R8)(AX*8), Y2, Y2
	VADDPD  (DI)(AX*8), Y2, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     block

done:
	VZEROUPPER
	RET
