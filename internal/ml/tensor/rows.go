package tensor

import "math"

// expShiftSum writes dst[i] = math.Exp(src[i]-shift) and returns z plus
// their sum, added one element at a time in index order. src is at
// least as long as dst. Where hasExp holds, the kernel takes four
// elements at a time and leaves a block with a lane off archExp's main
// path — overflow, underflow, a denormal result, a non-finite input —
// to math.Exp.
func expShiftSum(dst, src []float64, shift, z float64) float64 {
	src = src[:len(dst)]
	i := 0
	if hasExp {
		for {
			var n int
			n, z = expShiftSumAVX(dst[i:], src[i:], shift, z)
			if i += n; len(dst)-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = math.Exp(src[i] - shift)
				z += dst[i]
			}
		}
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Exp(src[i] - shift)
		z += dst[i]
	}
	return z
}

// rowMax returns the largest of src, NaN skipped, -Inf for a row of
// nothing else.
func rowMax(src []float64) float64 {
	m := math.Inf(-1)
	for _, v := range src {
		if v > m {
			m = v
		}
	}
	return m
}

// GELUInto writes GELUScalar(src[i]) into dst[i]; dst may be src, and
// src is at least as long as dst.
func GELUInto(dst, src []float64) {
	src = src[:len(dst)]
	i := 0
	if hasExp {
		i = len(dst) &^ 3
		geluAVX(dst[:i], src[:i], geluCoef)
	}
	for ; i < len(dst); i++ {
		dst[i] = GELUScalar(src[i])
	}
}

// geluBack adds g[i]·geluDF(x[i]) to grad[i]: the GELU op's backward.
// g and x are at least as long as grad.
func geluBack(grad, g, x []float64) {
	g, x = g[:len(grad)], x[:len(grad)]
	i := 0
	if hasExp {
		i = len(grad) &^ 3
		geluBackAVX(grad[:i], g[:i], x[:i], geluCoef)
	}
	for ; i < len(grad); i++ {
		grad[i] += g[i] * geluDF(x[i])
	}
}
