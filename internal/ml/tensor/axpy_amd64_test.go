package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// forceScalar switches every kernel to its Go loop, which is what a
// machine without AVX2 runs, and returns the call that switches them
// back.
func forceScalar() (restore func()) {
	was, exp := hasAVX2, hasExp
	hasAVX2, hasExp = false, false
	return func() { hasAVX2, hasExp = was, exp }
}

// axpyEdgeValues are the operands rounding, overflow and NaN handling
// turn on: the differential test draws from them and the fuzz targets'
// seed corpora are built of them.
var axpyEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // denormals
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e308, -1e308, 1e-308, -1e-308,
}

// checkAxpy4 runs axpy4 and, on a copy, the four axpy calls it stands
// for, one row after another, on one backing array each for dst and x,
// the operands at the given element offsets, and compares every bit of
// the two dst arrays: the n elements of dst and the ones around them,
// which neither may touch. axpy4 is mulRow's Go loop, the oracle of
// mulRowAVX, so this holds the oracle itself to the plainest form of
// the sum. One NaN is as good as another: of two NaN operands x86
// passes on the one the instruction names first, and the compiler
// orders a Go loop's operands as its register allocation falls out (a
// -race build orders them differently), so the payload of a NaN is not
// a property of the loop.
func checkAxpy4(t *testing.T, dstBack, xBack []float64, dstOff, xOff, n int, a [4]float64) {
	t.Helper()
	got, want := append([]float64(nil), dstBack...), append([]float64(nil), dstBack...)
	x := xBack[xOff : xOff+4*n]
	axpy4(got[dstOff:dstOff+n], a[0], a[1], a[2], a[3], x, n)
	for r, ar := range a {
		axpy(want[dstOff:dstOff+n], ar, x[r*n:])
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("n %d, dst at +%d, x at +%d, factors %v: element %d = %#x (%v), four axpys leave %#x (%v)",
				n, dstOff, xOff, a, i-dstOff, g, got[i], w, want[i])
		}
	}
}

// FuzzAxpy4MatchesScalar is checkAxpy4 over operands whose every bit
// the fuzzer chooses: raw is read as float64 bit patterns — the four
// factors, then dst and x, cycling when it runs out. A zero among the
// factors must take the fallback that skips it: the one-pass loop
// would multiply it into an Inf and add the NaN.
func FuzzAxpy4MatchesScalar(f *testing.F) {
	var edges []byte
	for _, v := range axpyEdgeValues {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(v))
	}
	for i, n := range []uint8{0, 1, 3, 4, 5, 8, 31, 67} {
		rot := 8 * (i % len(axpyEdgeValues))
		f.Add(append(append([]byte(nil), edges[rot:]...), edges[:rot]...), n, uint8(i))
	}
	// Values of like magnitude and full mantissas, whose sum depends on
	// the order it is taken in.
	var thirds []byte
	for i, sign := 1, 1.0; i <= 23; i, sign = i+1, -sign {
		thirds = binary.LittleEndian.AppendUint64(thirds, math.Float64bits(sign*float64(i)/3))
	}
	f.Add(thirds, uint8(67), uint8(5))
	f.Add(thirds[8:], uint8(6), uint8(15))
	f.Fuzz(func(t *testing.T, raw []byte, length, offset uint8) {
		pos := 0
		next := func() float64 {
			var word [8]byte
			for i := range word {
				if len(raw) > 0 {
					word[i] = raw[(pos+i)%len(raw)]
				}
			}
			pos += 8
			return math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		n, dstOff, xOff := int(length%68), int(offset%4), int(offset/4%4)
		a := [4]float64{next(), next(), next(), next()}
		dstBack, xBack := make([]float64, dstOff+n+3), make([]float64, xOff+4*n+3)
		for i := range dstBack {
			dstBack[i] = next()
		}
		for i := range xBack {
			xBack[i] = next()
		}
		checkAxpy4(t, dstBack, xBack, dstOff, xOff, n, a)
	})
}

// TestCPUDetectionMatchesKernel: the CPUID/XGETBV probe and the kernel's
// own view of the CPU agree on AVX2 and FMA.
func TestCPUDetectionMatchesKernel(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux's")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	_, flags, ok := strings.Cut(string(info), "\nflags")
	if !ok {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	flags, _, _ = strings.Cut(flags, "\n")
	listed := map[string]bool{}
	for _, flag := range strings.Fields(flags) {
		listed[flag] = true
	}
	avx2, fma := cpuFeatures()
	if avx2 != listed["avx2"] {
		t.Errorf("cpuFeatures() avx2 = %v, /proc/cpuinfo lists avx2: %v", avx2, listed["avx2"])
	}
	if want := listed["avx"] && listed["fma"]; fma != want {
		t.Errorf("cpuFeatures() fma = %v, /proc/cpuinfo lists avx and fma: %v", fma, want)
	}
}

// checkMulRow runs mulRow as built and through the Go loop on copies of
// one backing array for dst, x and w at the given element offsets — W
// being k rows of n elements, stride apart — and compares every bit of
// the two dst arrays: the n elements of dst and the ones around them,
// which neither may touch. NaN payloads are not compared (see
// checkAxpy4).
func checkMulRow(t *testing.T, dstBack, xBack, wBack []float64, dstOff, xOff, wOff, n, k, stride int) {
	t.Helper()
	got, want := append([]float64(nil), dstBack...), append([]float64(nil), dstBack...)
	x, w := xBack[xOff:xOff+k], wBack[wOff:]
	mulRow(got[dstOff:dstOff+n], x, w, stride)
	restore := forceScalar()
	mulRow(want[dstOff:dstOff+n], x, w, stride)
	restore()
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("n %d, k %d, stride %d, dst at +%d, x at +%d, w at +%d: element %d = %#x (%v), the Go loop leaves %#x (%v)",
				n, k, stride, dstOff, xOff, wOff, i-dstOff, g, got[i], w, want[i])
		}
	}
}

// TestMulRowVectorMatchesScalar holds the row kernel to the Go loop bit
// for bit: every width around its 32-, 16- and 4-wide blocks and its
// single-element tail, every row count up to 40, rows read narrower than
// they are stored, operands that start at odd elements, data from
// axpyEdgeValues and at random, and factors of ±0 beside rows of ±Inf,
// which the kernel must skip as the Go loop does — multiplied, they
// would add a NaN.
func TestMulRowVectorMatchesScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: mulRow is the Go loop already")
	}
	rng := rand.New(rand.NewSource(23))
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return axpyEdgeValues[rng.Intn(len(axpyEdgeValues))]
		}
		return rng.NormFloat64()
	}
	for n := 0; n <= 67; n++ {
		for k := 0; k <= 40; k++ {
			stride := n + rng.Intn(3)
			dstOff, xOff, wOff := 1+2*rng.Intn(2), 1+2*rng.Intn(2), 1+2*rng.Intn(2)
			dstBack, xBack := make([]float64, dstOff+n+3), make([]float64, xOff+k+3)
			wBack := make([]float64, wOff+k*stride+3)
			for _, v := range [][]float64{dstBack, xBack, wBack} {
				for i := range v {
					v[i] = draw()
				}
			}
			for p := 0; p < k; p++ {
				if rng.Intn(4) == 0 {
					xBack[xOff+p] = axpyEdgeValues[rng.Intn(2)] // +0 or -0
					for j := 0; j < n; j++ {
						wBack[wOff+p*stride+j] = math.Inf(1 - 2*rng.Intn(2))
					}
				}
			}
			checkMulRow(t, dstBack, xBack, wBack, dstOff, xOff, wOff, n, k, stride)
		}
	}
}

// FuzzMulRowMatchesScalar is the same comparison over operands whose
// every bit the fuzzer chooses: raw is read as float64 bit patterns —
// x, then dst, then w, cycling when it runs out; shape picks the
// offsets and how much wider than it is read W is stored.
func FuzzMulRowMatchesScalar(f *testing.F) {
	var edges []byte
	for _, v := range axpyEdgeValues {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(v))
	}
	for i, n := range []uint8{0, 1, 3, 4, 5, 16, 31, 32, 48, 67} {
		rot := 8 * (i % len(axpyEdgeValues))
		f.Add(append(append([]byte(nil), edges[rot:]...), edges[:rot]...), n, uint8(3*i), uint8(i))
	}
	var thirds []byte
	for i, sign := 1, 1.0; i <= 23; i, sign = i+1, -sign {
		thirds = binary.LittleEndian.AppendUint64(thirds, math.Float64bits(sign*float64(i)/3))
	}
	f.Add(thirds, uint8(67), uint8(40), uint8(5))
	f.Add(thirds[8:], uint8(16), uint8(48), uint8(30))
	f.Fuzz(func(t *testing.T, raw []byte, length, rows, shape uint8) {
		if !hasAVX2 {
			t.Skip("no AVX2: mulRow is the Go loop already")
		}
		pos := 0
		next := func() float64 {
			var word [8]byte
			for i := range word {
				if len(raw) > 0 {
					word[i] = raw[(pos+i)%len(raw)]
				}
			}
			pos += 8
			return math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		n, k := int(length%68), int(rows%49)
		dstOff, xOff, wOff, stride := int(shape%2), int(shape/2%2), int(shape/4%2), n+int(shape/8%4)
		dstBack, xBack := make([]float64, dstOff+n+3), make([]float64, xOff+k+3)
		wBack := make([]float64, wOff+k*stride+3)
		for _, v := range [][]float64{xBack, dstBack, wBack} {
			for i := range v {
				v[i] = next()
			}
		}
		checkMulRow(t, dstBack, xBack, wBack, dstOff, xOff, wOff, n, k, stride)
	})
}
