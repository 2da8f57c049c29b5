//go:build !amd64

package tensor

// No vector kernel on this GOARCH: mulRow and the softmax and GELU rows
// are their Go loops, and the branches that would call the assembly are
// dead code the compiler drops.
const hasAVX2, hasExp = false, false

func mulRowAVX(dst, x, w []float64, stride int) {
	panic("tensor: mulRowAVX without a vector kernel")
}

func expShiftSumAVX(dst, src []float64, shift, z float64) (done int, sum float64) {
	panic("tensor: expShiftSumAVX without a vector kernel")
}

func geluAVX(dst, src []float64, coef float64) {
	panic("tensor: geluAVX without a vector kernel")
}

func geluBackAVX(grad, g, x []float64, coef float64) {
	panic("tensor: geluBackAVX without a vector kernel")
}
