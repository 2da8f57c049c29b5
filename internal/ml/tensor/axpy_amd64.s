#include "textflag.h"

// func cpuFeatures() (avx2, fma bool)
//
// AVX is usable when the CPU has it and the OS saves the YMM registers
// across a context switch: CPUID.1:ECX OSXSAVE and AVX (bits 27, 28),
// then XCR0 bits 1 and 2 by XGETBV. Given that, AVX2 is CPUID.7:EBX
// bit 5 and FMA is CPUID.1:ECX bit 12.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB   $0, avx2+0(FP)
	MOVB   $0, fma+1(FP)
	XORL   AX, AX
	CPUID
	MOVL   AX, R8 // the highest leaf
	MOVL   $1, AX
	CPUID
	MOVL   CX, R9
	ANDL   $(3<<27), CX
	CMPL   CX, $(3<<27)
	JNE    no
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    no
	SHRL   $12, R9
	ANDL   $1, R9
	MOVB   R9, fma+1(FP)
	CMPL   R8, $7
	JLT    no
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	TESTL  $(1<<5), BX
	JZ     no
	MOVB   $1, avx2+0(FP)

no:
	RET
