package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// archExp's constants, as $GOROOT/src/math/exp_amd64.s writes them.
const (
	expLog2e = 1.4426950408889634073599246810018920
	expLn2U  = 0.69314718055966295651160180568695068359375
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12
)

// expTaylor are the polynomial's coefficients, highest degree first.
var expTaylor = [...]float64{
	2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
	8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1,
	0.5, 1.0,
}

// cvtsd2sl is CVTSD2SL under the default rounding: to nearest, ties to
// even, and the integer indefinite 0x80000000 for NaN and anything out
// of range.
func cvtsd2sl(x float64) int32 {
	r := math.RoundToEven(x)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int32(r)
}

// archExpRef is archExp transliterated around one of its two bodies:
// the checks before it, n = round(x·log2e), and the multiply by 2^n
// after, with the detours for an overflowing, denormal or vanishing
// result.
func archExpRef(x float64, body func(x, n float64) float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	n := cvtsd2sl(expLog2e * x)
	fr := body(x, float64(n))
	b := n + 0x3ff
	switch {
	case b <= 0:
		if b < -52 {
			return 0
		}
		fr *= math.Float64frombits(uint64(b+0x3fe) << 52)
		b = 1
	case b >= 0x7ff:
		return math.Inf(1)
	}
	return fr * math.Float64frombits(uint64(b)<<52)
}

// expFMARef is archExp's AVX+FMA body: the reduction, the polynomial
// and the last squaring fused (math.FMA rounds once, as VFMADD does).
func expFMARef(x float64) float64 {
	return archExpRef(x, func(x, n float64) float64 {
		r := math.FMA(-n, expLn2U, x)
		r = math.FMA(-n, expLn2L, r)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = math.FMA(p, r, c)
		}
		r *= p
		for i := 0; i < 3; i++ {
			r *= r + 2
		}
		return math.FMA(r+2, r, 1)
	})
}

// expSSE2Ref is archExp's SSE2 body: every product rounded before its
// add (the conversions forbid the compiler to fuse them).
func expSSE2Ref(x float64) float64 {
	return archExpRef(x, func(x, n float64) float64 {
		r := x - float64(n*expLn2U)
		r -= float64(n * expLn2L)
		r *= 0.0625
		p := expTaylor[0]
		for _, c := range expTaylor[1:] {
			p = float64(p*r) + c
		}
		r *= p
		for i := 0; i < 4; i++ {
			r *= r + 2
		}
		return r + 1
	})
}

// TestExpPathMatchesGoldens names a dependence every recorded golden
// has: math.Exp takes archExp's FMA body on a CPU with AVX and FMA and
// its SSE2 body elsewhere, the two differ in the last bit of some
// results, and the goldens (the checkpoint hashes, the nn and ppo
// digests) were recorded under FMA.
func TestExpPathMatchesGoldens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := 0.0
	for expFMARef(x) == expSSE2Ref(x) {
		x = rng.Float64()*40 - 20
	}
	fma, sse2, got := expFMARef(x), expSSE2Ref(x), math.Exp(x)
	switch got {
	case fma:
	case sse2:
		t.Fatalf("math.Exp(%v) = %#x, archExp's SSE2 body (no AVX+FMA on this CPU), not its FMA body's %#x: "+
			"the recorded goldens assume the FMA body and cannot hold here", x, math.Float64bits(got), math.Float64bits(fma))
	default:
		t.Fatalf("math.Exp(%v) = %#x, neither archExp's FMA body (%#x) nor its SSE2 body (%#x): "+
			"the recorded goldens cannot hold here",
			x, math.Float64bits(got), math.Float64bits(fma), math.Float64bits(sse2))
	}
}

// TestExpShiftSumMatchesMath holds the exp kernel to expFMARef, element
// and sum, bit for bit: a million inputs over archExp's main path, then
// every length around the block of four, rows at odd offsets, exps of
// specials and random bit patterns, which stop the kernel at their
// block. Where the rows run the kernel it also holds expFMARef to
// math.Exp on a million draws, of which expProbe's eight inputs are the
// start-up sample.
func TestExpShiftSumMatchesMath(t *testing.T) {
	if !hasAVX2 || !hasFMA {
		t.Skip("no AVX2 and FMA: no exp kernel")
	}
	rng := rand.New(rand.NewSource(40))
	if hasExp {
		for i := 0; i < 1<<20; i++ {
			x := drawExp(rng)
			if got, want := math.Exp(x), expFMARef(x); !sameBits(got, want) {
				t.Fatalf("math.Exp(%v) = %#x, archExp's FMA body gives %#x", x, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	wide := make([]float64, 1<<20)
	for i := range wide {
		wide[i] = rng.Float64()*1400 - 700
	}
	dst := make([]float64, len(wide))
	if done, _ := expShiftSumAVX(dst, wide, 0, 0); done != len(wide) {
		t.Fatalf("the kernel stopped at %d of %d inputs in [-700, 700]", done, len(wide))
	}
	for i, x := range wide {
		if e := expFMARef(x); !sameBits(dst[i], e) {
			t.Fatalf("exp(%v) = %#x, archExp's FMA body gives %#x", x, math.Float64bits(dst[i]), math.Float64bits(e))
		}
	}
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 32; trial++ {
			off := 1 + 2*rng.Intn(2)
			src := make([]float64, off+n)
			for i := range src {
				if src[i] = drawExp(rng); trial%2 == 0 {
					src[i] = rng.NormFloat64() * 30
				}
			}
			shift := []float64{0, 1.5, -3}[trial%3]
			dst := make([]float64, n+2)
			done, sum := expShiftSumAVX(dst[1:n+1], src[off:], shift, 0.25)
			want := 0.25
			for i := 0; i < done; i++ {
				e := expFMARef(src[off+i] - shift)
				if !sameBits(dst[1+i], e) {
					t.Fatalf("n %d: exp(%v - %v) = %#x, archExp's FMA body gives %#x",
						n, src[off+i], shift, math.Float64bits(dst[1+i]), math.Float64bits(e))
				}
				want += e
			}
			if !sameBits(sum, want) {
				t.Fatalf("n %d: sum of %d exps = %#x, added in order %#x", n, done, math.Float64bits(sum), math.Float64bits(want))
			}
			if done%4 != 0 || done > n {
				t.Fatalf("n %d: the kernel claims %d elements", n, done)
			}
			if done <= n-4 {
				stop := false
				for _, x := range src[off+done : off+done+4] {
					n := cvtsd2sl(expLog2e * (x - shift))
					stop = stop || n < -1022 || n > 1023
				}
				if !stop {
					t.Fatalf("n %d: the kernel stopped at %d, before a block on archExp's main path", n, done)
				}
			}
			if dst[0] != 0 || dst[n+1] != 0 {
				t.Fatalf("n %d: the kernel wrote outside dst", n)
			}
		}
	}
}

// tanhRef is math.tanh transliterated around the given exp.
func tanhRef(u float64, exp func(float64) float64) float64 {
	switch z := math.Abs(u); {
	case z > 0.5*8.8029691931113054295988e+01:
		return math.Copysign(1, u)
	case z >= 0.625:
		s := exp(2 * z)
		th := 1 - 2/(s+1)
		if u < 0 {
			th = -th
		}
		return th
	case u == 0:
		return u
	default:
		s := u * u
		return u + u*s*((-9.64399179425052238628e-1*s+-9.92877231001918586564e1)*s+-1.61468768441708447952e3)/
			(((s+1.12811678491632931402e2)*s+2.23548839060100448583e3)*s+4.84406305325125486048e3)
	}
}

// TestGELUKernelBodiesMatchReference holds the GELU kernels to
// GELUScalar and geluDF over archExp's FMA body, bit for bit.
func TestGELUKernelBodiesMatchReference(t *testing.T) {
	if !hasAVX2 || !hasFMA {
		t.Skip("no AVX2 and FMA: no GELU kernel")
	}
	rng := rand.New(rand.NewSource(41))
	src, g := make([]float64, 1<<16), make([]float64, 1<<16)
	for i := range src {
		src[i], g[i] = drawGELU(rng), rng.NormFloat64()
	}
	copy(src, geluEdgeValues)
	dst, grad := make([]float64, len(src)), make([]float64, len(src))
	geluAVX(dst, src, geluCoef)
	geluBackAVX(grad, g, src, geluCoef)
	for i, x := range src {
		th := tanhRef(geluCoef*(x+0.044715*x*x*x), expFMARef)
		if want := 0.5 * x * (1 + th); !sameBits(dst[i], want) {
			t.Fatalf("gelu(%v) = %#x, GELUScalar over archExp's FMA body gives %#x", x, math.Float64bits(dst[i]), math.Float64bits(want))
		}
		df := 0.5*(1+th) + 0.5*x*(1-th*th)*geluCoef*(1+3*0.044715*x*x)
		if want := 0 + g[i]*df; !sameBits(grad[i], want) {
			t.Fatalf("g·geluDF(%v) = %#x, geluDF over archExp's FMA body gives %#x", x, math.Float64bits(grad[i]), math.Float64bits(want))
		}
	}
}
