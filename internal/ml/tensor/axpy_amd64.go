package tensor

import "math"

// hasAVX2 selects the vector loops of axpy4 and mulRow. It is read once
// at start-up from the CPU; only tests write it, to run the Go loops on
// the same machine.
var hasAVX2, hasFMA = cpuFeatures()

// hasExp selects the exp kernel (exp_amd64.s) under the softmax and
// GELU rows. The kernel is archExp's AVX+FMA body, the one math.Exp
// takes on a CPU with AVX and FMA (math.useFMA's rule), so it runs on
// such a CPU once it has left math.Exp's bits on every input of
// expProbe. Elsewhere the rows are their Go loops, which call math.Exp.
var hasExp = hasAVX2 && hasFMA && expKernelMatches()

// axpy4avx is axpy4's loop four elements of dst at a time (axpy_amd64.s),
// for non-zero factors and an x of four rows of len(dst): axpy4 checks both.
//
//go:noescape
func axpy4avx(dst []float64, a0, a1, a2, a3 float64, x []float64)

// mulRowAVX is mulRow's loop with dst in vector registers
// (matvec_amd64.s), for a non-empty dst and x and a w holding len(x)
// rows of len(dst) elements, stride apart: mulRow checks all three.
//
//go:noescape
func mulRowAVX(dst, x, w []float64, stride int)

// expShiftSumAVX is expShiftSum's loop four elements at a time, up to
// the first block with a lane off archExp's main path (exp_amd64.s). src
// is at least as long as dst.
//
//go:noescape
func expShiftSumAVX(dst, src []float64, shift, z float64) (done int, sum float64)

// geluAVX is GELUInto's loop four elements at a time over a len(dst)
// that is a multiple of four and a src at least as long (exp_amd64.s).
//
//go:noescape
func geluAVX(dst, src []float64, coef float64)

// geluBackAVX is geluBack's loop four elements at a time, like geluAVX,
// over a len(grad) that is a multiple of four and a g and x at least as
// long (exp_amd64.s).
//
//go:noescape
func geluBackAVX(grad, g, x []float64, coef float64)

// cpuFeatures reports whether the CPU and the OS let the vector kernels
// run (AVX2 with the YMM state saved) and whether the CPU has FMA, which
// with AVX is math.useFMA's rule for archExp's body.
func cpuFeatures() (avx2, fma bool)

// expProbe is what hasExp checks the kernel against math.Exp on. The
// first four inputs round differently under archExp's two bodies, so the
// check fails where math.Exp takes the SSE2 body on a CPU with FMA
// (GODEBUG=cpu.fma=off).
var expProbe = [...]float64{
	226.19463546765758, 111.96164072103329, -119.03469857012249, 442.65458677181687,
	0, -1, 0.5, -700,
}

// expKernelMatches reports whether the exp kernel leaves math.Exp's bits
// on every input of expProbe.
func expKernelMatches() bool {
	var got [len(expProbe)]float64
	done, _ := expShiftSumAVX(got[:], expProbe[:], 0, 0)
	if done != len(got) {
		return false
	}
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}
