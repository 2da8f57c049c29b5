#include "textflag.h"

// func axpy4avx(dst []float64, a0, a1, a2, a3 float64, x []float64)
//
// Lane j of a vector is element j of the scalar loop in axpy4: it takes
// a0*x0[j], a1*x1[j], a2*x2[j], a3*x3[j] in that order, each product
// rounded by its own multiply before its add. No VFMADD here, ever: a
// fused multiply-add rounds once and moves every recorded golden.
// (Where the Go loop leaves a NaN this leaves a NaN, but which of two
// NaN operands an instruction passes on depends on their order, which
// the compiler does not keep for the Go loop either.)
TEXT ·axpy4avx(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         x_base+56(FP), SI // row 0 of x; rows 1-3 follow, len(dst) apart
	LEAQ         (SI)(CX*8), R8
	LEAQ         (R8)(CX*8), R9
	LEAQ         (R9)(CX*8), R10
	XORQ         AX, AX            // j
	MOVQ         CX, DX
	ANDQ         $~3, DX           // the multiple of 4 the vector loop stops at
	JZ           tail

vec:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R8)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R10)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     vec

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (DI)(AX*8), X4
	VMULSD (SI)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R8)(AX*8), X1, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X2, X5
	VADDSD X5, X4, X4
	VMULSD (R10)(AX*8), X3, X5
	VADDSD X5, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU has it (CPUID.7:EBX bit 5) and the OS
// saves the YMM registers across a context switch: CPUID.1:ECX OSXSAVE
// and AVX (bits 27, 28), then XCR0 bits 1 and 2 by XGETBV.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB   $0, ret+0(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    no
	MOVL   $1, AX
	CPUID
	ANDL   $(3<<27), CX
	CMPL   CX, $(3<<27)
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	TESTL  $(1<<5), BX
	JZ     no
	MOVB   $1, ret+0(FP)

no:
	RET
