package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expOverflow is archExp's overflow threshold: math.Exp is +Inf above it.
const expOverflow = 7.09782712893384e+02

// sameBits reports whether a and b are the same float64, any NaN being
// as good as another: which of two NaN operands an instruction passes on
// depends on their order, which the compiler does not keep.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// expSpecials are the inputs around archExp's detours: zeros, the
// infinities and NaN, the overflow threshold, the results that go
// denormal and then vanish, denormal inputs.
var expSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	709.78, 709.79, expOverflow, math.Nextafter(expOverflow, 0), 1e300, -1e300,
	-708.3, -708.4, -708.5, -709, -720, -730, -740, -744.4, -745.1, -746,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	1, -1, 1e-20, -1e-20, 0.5, -0.5,
}

// drawExp returns an input for the exp kernels: a special, a random bit
// pattern, or uniform over archExp's whole range.
func drawExp(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return expSpecials[rng.Intn(len(expSpecials))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	}
	return rng.Float64()*1420 - 710
}

// softmaxRef is SoftmaxInto as it was before the row kernels, verbatim:
// the oracle of their order of operations.
func softmaxRef(dst, src []float64) {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	var z float64
	for i, v := range src {
		e := math.Exp(v - maxV)
		dst[i] = e
		z += e
	}
	for i := range dst {
		dst[i] /= z
	}
}

// logSoftmaxAtRef is LogSoftmaxAt as it was before the row kernels,
// verbatim.
func logSoftmaxAtRef(src []float64, id int) float64 {
	maxV := math.Inf(-1)
	for _, v := range src {
		if v > maxV {
			maxV = v
		}
	}
	var z float64
	for _, v := range src {
		z += math.Exp(v - maxV)
	}
	return src[id] - (math.Log(z) + maxV)
}

// checkSoftmaxRow holds SoftmaxInto, out of place and in place, and
// LogSoftmaxAt at every index to their old loops on one row.
func checkSoftmaxRow(t *testing.T, row []float64) {
	t.Helper()
	want := make([]float64, len(row))
	softmaxRef(want, row)
	got := make([]float64, len(row))
	SoftmaxInto(got, row)
	inPlace := append([]float64(nil), row...)
	SoftmaxInto(inPlace, inPlace)
	for i := range want {
		if !sameBits(got[i], want[i]) || !sameBits(inPlace[i], want[i]) {
			t.Fatalf("row %v: softmax element %d = %#x (in place %#x), the old loop leaves %#x",
				row, i, math.Float64bits(got[i]), math.Float64bits(inPlace[i]), math.Float64bits(want[i]))
		}
		if g, w := LogSoftmaxAt(row, i), logSoftmaxAtRef(row, i); !sameBits(g, w) {
			t.Fatalf("row %v: LogSoftmaxAt(%d) = %#x, the old loop returns %#x", row, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestSoftmaxIntoMatchesReference holds the softmax rows to their old
// loops bit for bit on both paths: every length around the kernels'
// blocks of 4 and 16, rows of logits, rows spread so wide that some
// exps go denormal or vanish, rows with NaN, ±Inf and ±0 ties at the
// maximum.
func TestSoftmaxIntoMatchesReference(t *testing.T) { eachAxpyPath(t, testSoftmaxIntoMatchesReference) }

func testSoftmaxIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	negZero := math.Copysign(0, -1)
	for _, row := range [][]float64{
		{}, {math.NaN()}, {math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{0, negZero, 0, negZero, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13},
		{negZero, 0, negZero, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12, -13},
		{1, math.Inf(-1), 2, 3, 4, math.Inf(-1), 5, 6},
		{math.Inf(1), 1, 2, 3, 4, 5, 6, 7},
		{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)},
		{1, math.NaN(), 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
	} {
		checkSoftmaxRow(t, row)
	}
	for n := 1; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			row := make([]float64, n)
			spread := []float64{1, 10, 400}[trial%3]
			for i := range row {
				row[i] = rng.NormFloat64() * spread
				if trial == 7 && rng.Intn(4) == 0 {
					row[i] = expSpecials[rng.Intn(len(expSpecials))]
				}
			}
			checkSoftmaxRow(t, row)
		}
	}
	wide := make([]float64, 512)
	for i := range wide {
		wide[i] = rng.NormFloat64() * 3
	}
	checkSoftmaxRow(t, wide)
}

// TestLogSoftmaxAtAllocatesNothing: the exps go to a buffer on the stack.
func TestLogSoftmaxAtAllocatesNothing(t *testing.T) {
	row := make([]float64, 512)
	for i := range row {
		row[i] = float64(i%17) - 8
	}
	if n := testing.AllocsPerRun(10, func() { LogSoftmaxAt(row, 3) }); n != 0 {
		t.Fatalf("LogSoftmaxAt allocates %v times per call", n)
	}
}

// geluEdgeValues are the GELU inputs where its tanh changes branch
// (|u| = 0.625, |u| = 0.5·MAXLOG) or the cube overflows, with zeros,
// infinities, NaN and denormals.
var geluEdgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0.7, -0.7, 0.72, -0.72, 0.73, -0.73, 12, -12, 12.5, -12.5, 13, -13,
	1e100, -1e100, 1e103, -1e103, 1e300, -1e300,
}

// drawGELU returns an input for the GELU kernel: an edge value, a
// random bit pattern, or an activation-sized normal.
func drawGELU(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return geluEdgeValues[rng.Intn(len(geluEdgeValues))]
	case 1:
		return math.Float64frombits(rng.Uint64())
	case 2:
		return rng.NormFloat64() * 20
	}
	return rng.NormFloat64() * 2
}

// checkGELURow holds GELUInto, out of place and in place, to GELUScalar
// on one row, and geluBack to the Go loop of the GELU op's backward, the
// gradients it adds to drawn from the row itself.
func checkGELURow(t *testing.T, row []float64) {
	t.Helper()
	got := make([]float64, len(row))
	GELUInto(got, row)
	inPlace := append([]float64(nil), row...)
	GELUInto(inPlace, inPlace)
	for i, x := range row {
		if w := GELUScalar(x); !sameBits(got[i], w) || !sameBits(inPlace[i], w) {
			t.Fatalf("GELUInto element %d of %d (x = %v, %#x) = %#x (in place %#x), GELUScalar gives %#x",
				i, len(row), x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(inPlace[i]), math.Float64bits(w))
		}
	}
	g := make([]float64, len(row))
	for i := range g {
		g[i] = row[len(row)-1-i]
	}
	grad := append([]float64(nil), got...)
	geluBack(grad, g, row)
	for i, x := range row {
		if w := got[i] + g[i]*geluDF(x); !sameBits(grad[i], w) {
			t.Fatalf("geluBack element %d of %d (x = %v, %#x, g = %v) = %#x, the Go loop gives %#x",
				i, len(row), x, math.Float64bits(x), g[i], math.Float64bits(grad[i]), math.Float64bits(w))
		}
	}
}

// TestGELUIntoMatchesScalar holds the GELU rows, forward and backward,
// to GELUScalar and geluDF bit for bit on both paths: every length
// around the block of four, every branch of tanh and the inputs at their
// edges.
func TestGELUIntoMatchesScalar(t *testing.T) { eachAxpyPath(t, testGELUIntoMatchesScalar) }

func testGELUIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checkGELURow(t, geluEdgeValues)
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 8; trial++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = drawGELU(rng)
			}
			checkGELURow(t, row)
		}
	}
	row := make([]float64, 1<<16)
	for i := range row {
		row[i] = rng.Float64()*30 - 15
	}
	checkGELURow(t, row)
}

// FuzzTranscendentalRowsMatchMath holds the softmax and GELU rows, as
// built, to the Go loops over rows whose every bit the fuzzer picks.
func FuzzTranscendentalRowsMatchMath(f *testing.F) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{0, 3, 4, 17, 33} {
		var seed []byte
		for i := 0; i < n; i++ {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(drawExp(rng)))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]float64, min(len(data)/8, 256))
		for i := range row {
			row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkSoftmaxRow(t, row)
		checkGELURow(t, row)
	})
}

// BenchmarkSoftmaxRows times one row of each transcendental kernel at
// the model's widths, through SoftmaxInto, LogSoftmaxAt, GELUInto and
// geluBack as built: a 512-wide vocabulary row, a 48-wide attention row,
// a 128-wide MLP row.
func BenchmarkSoftmaxRows(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{512, 48} {
		row, dst := make([]float64, n), make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64() * 3
		}
		b.Run(fmt.Sprintf("softmax-%d", n), func(b *testing.B) {
			for b.Loop() {
				SoftmaxInto(dst, row)
			}
		})
		b.Run(fmt.Sprintf("logsoftmax-%d", n), func(b *testing.B) {
			for b.Loop() {
				LogSoftmaxAt(row, 1)
			}
		})
	}
	row, dst := make([]float64, 128), make([]float64, 128)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	b.Run("gelu-128", func(b *testing.B) {
		for b.Loop() {
			GELUInto(dst, row)
		}
	})
	b.Run("gelu-back-128", func(b *testing.B) {
		for b.Loop() {
			geluBack(dst, row, row)
		}
	})
}
