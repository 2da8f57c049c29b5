package tensor

// hasAVX2 selects axpy4's vector loop. It is read once at start-up from
// the CPU; only tests write it, to run the Go loop on the same machine.
var hasAVX2 = cpuHasAVX2()

// axpy4avx is axpy4's loop four elements of dst at a time (axpy_amd64.s),
// for non-zero factors and an x of four rows of len(dst): axpy4 checks both.
//
//go:noescape
func axpy4avx(dst []float64, a0, a1, a2, a3 float64, x []float64)

func cpuHasAVX2() bool
