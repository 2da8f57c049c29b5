//go:build !amd64

package tensor

// No vector kernel on this GOARCH: axpy4 is its Go loop, and the branch
// that would call axpy4avx is dead code the compiler drops.
const hasAVX2 = false

func axpy4avx(dst []float64, a0, a1, a2, a3 float64, x []float64) {
	panic("tensor: axpy4avx without a vector kernel")
}
