package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gradCheck compares analytic gradients against central differences.
// f must rebuild the graph from the live param values on every call.
func gradCheck(t *testing.T, name string, params []*Tensor, f func() *Tensor, tol float64) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	loss := f()
	Backward(loss)

	const h = 1e-5
	for pi, p := range params {
		analytic := make([]float64, len(p.Grad))
		copy(analytic, p.Grad)
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := f().Data[0]
			p.Data[i] = orig - h
			down := f().Data[0]
			p.Data[i] = orig
			numeric := (up - down) / (2 * h)
			diff := math.Abs(numeric - analytic[i])
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic[i])))
			if diff/scale > tol {
				t.Fatalf("%s: param %d elem %d: analytic %g vs numeric %g", name, pi, i, analytic[i], numeric)
			}
		}
	}
}

func randParam(rng *rand.Rand, r, c int) *Tensor {
	p := Param(r, c)
	for i := range p.Data {
		p.Data[i] = rng.NormFloat64()
	}
	return p
}

func TestGradAddSubMulMin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 3, 4)
	gradCheck(t, "add", []*Tensor{a, b}, func() *Tensor { return Mean(Add(a, b)) }, 1e-6)
	gradCheck(t, "sub", []*Tensor{a, b}, func() *Tensor { return Mean(Sub(a, b)) }, 1e-6)
	gradCheck(t, "mul", []*Tensor{a, b}, func() *Tensor { return Mean(Mul(a, b)) }, 1e-6)
	gradCheck(t, "min", []*Tensor{a, b}, func() *Tensor { return Mean(Min(a, b)) }, 1e-5)
}

func TestGradUnaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randParam(rng, 2, 5)
	gradCheck(t, "scale", []*Tensor{a}, func() *Tensor { return Mean(Scale(a, 2.5)) }, 1e-6)
	gradCheck(t, "exp", []*Tensor{a}, func() *Tensor { return Mean(Exp(a)) }, 1e-5)
	gradCheck(t, "gelu", []*Tensor{a}, func() *Tensor { return Mean(GELU(a)) }, 1e-5)
	gradCheck(t, "square", []*Tensor{a}, func() *Tensor { return Mean(Square(a)) }, 1e-6)
	gradCheck(t, "sum", []*Tensor{a}, func() *Tensor { return Sum(a) }, 1e-6)
}

func TestGradClamp(t *testing.T) {
	a := Param(1, 5)
	copy(a.Data, []float64{-2, -0.5, 0, 0.5, 2})
	gradCheck(t, "clamp", []*Tensor{a}, func() *Tensor { return Mean(Clamp(a, -1, 1)) }, 1e-6)
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 4, 5)
	gradCheck(t, "matmul", []*Tensor{a, b}, func() *Tensor { return Mean(MatMul(a, b)) }, 1e-5)
}

func TestGradAddBias(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randParam(rng, 3, 4)
	b := randParam(rng, 1, 4)
	gradCheck(t, "addbias", []*Tensor{a, b}, func() *Tensor { return Mean(AddBias(a, b)) }, 1e-6)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randParam(rng, 3, 6)
	g := randParam(rng, 1, 6)
	b := randParam(rng, 1, 6)
	gradCheck(t, "layernorm", []*Tensor{x, g, b},
		func() *Tensor { return Mean(LayerNorm(x, g, b)) }, 1e-4)
}

func TestGradEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	table := randParam(rng, 7, 4)
	ids := []int{0, 3, 3, 6, 1}
	gradCheck(t, "embedding", []*Tensor{table},
		func() *Tensor { return Mean(Embedding(nil, table, ids)) }, 1e-6)
}

func TestGradCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logits := randParam(rng, 5, 6)
	targets := []int{2, 0, -1, 5, 3} // one ignored row
	gradCheck(t, "crossentropy", []*Tensor{logits},
		func() *Tensor { return CrossEntropy(logits, targets) }, 1e-5)
}

func TestGradGatherLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := randParam(rng, 4, 5)
	ids := []int{1, 4, 0, 2}
	gradCheck(t, "gatherlogsoftmax", []*Tensor{logits},
		func() *Tensor { return Mean(GatherLogSoftmax(logits, ids)) }, 1e-5)
}

func TestGradCausalSelfAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const D, H = 6, 2
	offs := []int{0, 4, 5, 8} // three sequences: 4, 1 and 3 rows
	qkv := randParam(rng, 8, 3*D)
	gradCheck(t, "attention", []*Tensor{qkv},
		func() *Tensor { return Mean(CausalSelfAttention(qkv, H, offs, nil)) }, 1e-4)
	// A query subset: row 0 gets a gradient only as a key and value of
	// the later queries of its sequence; rows 4, 6 and 7 are no query
	// and precede none, so they get none (gradCheck leaves the analytic
	// gradient in Grad).
	gradCheck(t, "attention-queries", []*Tensor{qkv},
		func() *Tensor { return Mean(Square(CausalSelfAttention(qkv, H, offs, []int{1, 2, 3, 5}))) }, 1e-4)
	for _, r := range []int{4, 6, 7} {
		for j, g := range qkv.Grad[r*3*D : (r+1)*3*D] {
			if g != 0 {
				t.Fatalf("row %d is no query and precedes none, yet its gradient %d is %v", r, j, g)
			}
		}
	}
	if allZero(qkv.Grad[:3*D]) {
		t.Fatal("row 0 got no gradient from the queries it is a key of")
	}
}

func TestGradComposite(t *testing.T) {
	// A miniature transformer-block-like composite to exercise the tape.
	rng := rand.New(rand.NewSource(10))
	x := randParam(rng, 4, 6)
	w := randParam(rng, 6, 6)
	g := randParam(rng, 1, 6)
	b := randParam(rng, 1, 6)
	gradCheck(t, "composite", []*Tensor{x, w, g, b}, func() *Tensor {
		h := MatMul(x, w)
		h = GELU(h)
		h = LayerNorm(h, g, b)
		h = Add(h, x)
		return Mean(Square(h))
	}, 1e-4)
}

func TestCausalMaskNoFutureLeak(t *testing.T) {
	// Changing a future token's K/V must not change an earlier output.
	const T, D, H = 3, 4, 1
	offs := []int{0, T}
	qkv := New(T, 3*D)
	rng := rand.New(rand.NewSource(11))
	for i := range qkv.Data {
		qkv.Data[i] = rng.NormFloat64()
	}
	out1 := CausalSelfAttention(qkv, H, offs, nil)
	row0a := append([]float64(nil), out1.Row(0)...)
	// Perturb the last token's entire qkv row.
	for j := 0; j < 3*D; j++ {
		qkv.Set(T-1, j, qkv.At(T-1, j)+5)
	}
	out2 := CausalSelfAttention(qkv, H, offs, nil)
	for j, v := range out2.Row(0) {
		if math.Abs(v-row0a[j]) > 1e-12 {
			t.Fatalf("future token leaked into position 0 (col %d)", j)
		}
	}
}

// TestAttentionNoCrossSequenceLeak: the rows of one sequence of a
// packed batch are no keys or values of another's queries — changing
// all of sequence 0 leaves sequence 1's outputs bit-equal, whole or as
// a query subset.
func TestAttentionNoCrossSequenceLeak(t *testing.T) {
	const D, H = 4, 2
	offs := []int{0, 3, 7}
	rng := rand.New(rand.NewSource(16))
	qkv := New(7, 3*D)
	for i := range qkv.Data {
		qkv.Data[i] = rng.NormFloat64()
	}
	before := CausalSelfAttention(qkv, H, offs, nil)
	beforeSub := CausalSelfAttention(qkv, H, offs, []int{4, 6})
	for i := range qkv.Data[:3*3*D] {
		qkv.Data[i] += 5
	}
	after := CausalSelfAttention(qkv, H, offs, nil)
	afterSub := CausalSelfAttention(qkv, H, offs, []int{4, 6})
	for i := 3 * D; i < len(before.Data); i++ {
		if math.Float64bits(before.Data[i]) != math.Float64bits(after.Data[i]) {
			t.Fatalf("sequence 0 leaked into sequence 1 (row %d col %d)", i/D, i%D)
		}
	}
	for i := range beforeSub.Data {
		if math.Float64bits(beforeSub.Data[i]) != math.Float64bits(afterSub.Data[i]) {
			t.Fatalf("sequence 0 leaked into query %d of sequence 1 (col %d)", i/D, i%D)
		}
		if want := before.Data[[]int{4, 6}[i/D]*D+i%D]; math.Float64bits(beforeSub.Data[i]) != math.Float64bits(want) {
			t.Fatalf("query subset row %d col %d = %v, the full call's row has %v", i/D, i%D, beforeSub.Data[i], want)
		}
	}
}

func TestMatMulCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a, b := New(m, k), New(k, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		out := MatMul(a, b)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var want float64
				for p := 0; p < k; p++ {
					want += a.At(i, p) * b.At(p, j)
				}
				if math.Abs(out.At(i, j)-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestParallelMatMulMatchesSerial(t *testing.T) {
	eachAxpyPath(t, testParallelMatMulMatchesSerial)
}

func testParallelMatMulMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	// Big enough to cross matmulThreshold.
	a, b := New(64, 64), New(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	out := MatMul(a, b)
	for i := 0; i < 8; i++ { // spot-check rows
		for j := 0; j < 8; j++ {
			var want float64
			for p := 0; p < 64; p++ {
				want += a.At(i, p) * b.At(p, j)
			}
			if math.Abs(out.At(i, j)-want) > 1e-9 {
				t.Fatalf("parallel matmul wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i := range vals {
			// bound magnitudes to avoid Inf inputs from quick
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 0
			}
			vals[i] = math.Mod(vals[i], 50)
		}
		sm := make([]float64, len(vals))
		SoftmaxInto(sm, vals)
		sum := 0.0
		for _, v := range sm {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched Add should panic")
		}
	}()
	Add(New(2, 3), New(3, 2))
}

func TestGradientAccumulation(t *testing.T) {
	// Using a param twice must sum both gradient paths.
	a := Param(1, 1)
	a.Data[0] = 3
	loss := Mean(Mul(a, a)) // d(a²)/da = 2a = 6
	Backward(loss)
	if math.Abs(a.Grad[0]-6) > 1e-9 {
		t.Errorf("grad = %v, want 6", a.Grad[0])
	}
}

func TestCloneDetaches(t *testing.T) {
	a := Param(2, 2)
	for i := range a.Data {
		a.Data[i] = float64(i)
	}
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] == 99 {
		t.Error("clone shares data")
	}
	if c.prev != nil {
		t.Error("clone must be detached from the tape")
	}
}

func TestGradGatherRows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randParam(rng, 5, 3)
	w := randParam(rng, 3, 2)
	rows := []int{4, 1, 1, 0, 4, 4} // repeated and out of order; rows 2 and 3 unread
	gradCheck(t, "gatherrows", []*Tensor{a},
		func() *Tensor { return Mean(Square(GatherRows(a, rows))) }, 1e-6)
	// Two consumers of one gather, as PPO's two heads are.
	gradCheck(t, "gatherrows-shared", []*Tensor{a, w}, func() *Tensor {
		g := GatherRows(a, rows)
		return Add(Mean(MatMul(g, w)), Mean(Square(g)))
	}, 1e-5)
}

// TestAttentionRejectsBadLayout: offsets that do not span the rows and
// queries that are not ascending rows of the batch panic instead of
// reading another sequence's rows.
func TestAttentionRejectsBadLayout(t *testing.T) {
	qkv := New(5, 6)
	for name, call := range map[string]func(){
		"offsets short of the rows": func() { CausalSelfAttention(qkv, 1, []int{0, 3}, nil) },
		"offsets not from 0":        func() { CausalSelfAttention(qkv, 1, []int{1, 5}, nil) },
		"query past the last row":   func() { CausalSelfAttention(qkv, 1, []int{0, 3, 5}, []int{1, 5}) },
		"negative query":            func() { CausalSelfAttention(qkv, 1, []int{0, 3, 5}, []int{-1, 2}) },
		"queries descending":        func() { CausalSelfAttention(qkv, 1, []int{0, 3, 5}, []int{4, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// causalSelfAttentionPadded is the attention op as it was before
// batches were packed, kept as the oracle of the packed one: qkv is
// [B*T, 3D], rows [s*T, (s+1)*T) are sequence s, a [T,T] probability
// matrix is kept per (sequence, head).
func causalSelfAttentionPadded(qkv *Tensor, heads, seqLen int) *Tensor {
	if qkv.C%3 != 0 {
		panic("tensor: attention qkv width not divisible by 3")
	}
	d := qkv.C / 3
	if d%heads != 0 {
		panic("tensor: attention dim not divisible by heads")
	}
	if qkv.R%seqLen != 0 {
		panic("tensor: attention rows not divisible by seqLen")
	}
	b := qkv.R / seqLen
	dh := d / heads
	scale := 1 / math.Sqrt(float64(dh))

	out := child(qkv.R, d, qkv)
	// probs[s][h] is the [T,T] post-softmax attention matrix, kept for
	// backward; a forward that needs no gradients reuses one matrix.
	probs := make([][][]float64, b)
	var p []float64

	for s := 0; s < b; s++ {
		probs[s] = make([][]float64, heads)
		seq := qkv.Data[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
		for h := 0; h < heads; h++ {
			if p == nil || out.requires {
				p = make([]float64, seqLen*seqLen)
			}
			for t := 0; t < seqLen; t++ {
				q := seq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
				// Scores over keys 0..t.
				maxScore := math.Inf(-1)
				row := p[t*seqLen : (t+1)*seqLen]
				for u := 0; u <= t; u++ {
					k := seq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
					sum := 0.0
					for j, qv := range q {
						sum += qv * k[j]
					}
					row[u] = sum * scale
					if row[u] > maxScore {
						maxScore = row[u]
					}
				}
				var z float64
				for u := 0; u <= t; u++ {
					row[u] = math.Exp(row[u] - maxScore)
					z += row[u]
				}
				for u := 0; u <= t; u++ {
					row[u] /= z
				}
				// Output = P·V.
				or := out.Data[(s*seqLen+t)*d+h*dh : (s*seqLen+t)*d+h*dh+dh]
				for u := 0; u <= t; u++ {
					pu := row[u]
					if pu == 0 {
						continue
					}
					v := seq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
					for j := range or {
						or[j] += pu * v[j]
					}
				}
			}
			probs[s][h] = p
		}
	}

	out.onBackward(func() {
		dp := make([]float64, seqLen)
		for s := 0; s < b; s++ {
			seq := qkv.Data[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
			gseq := qkv.Grad[s*seqLen*qkv.C : (s+1)*seqLen*qkv.C]
			for h := 0; h < heads; h++ {
				p := probs[s][h]
				for t := 0; t < seqLen; t++ {
					do := out.Grad[(s*seqLen+t)*d+h*dh : (s*seqLen+t)*d+h*dh+dh]
					row := p[t*seqLen : (t+1)*seqLen]
					// dV and dP.
					for u := 0; u <= t; u++ {
						v := seq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
						gv := gseq[u*qkv.C+2*d+h*dh : u*qkv.C+2*d+h*dh+dh]
						var sum float64
						for j, g := range do {
							gv[j] += row[u] * g
							sum += g * v[j]
						}
						dp[u] = sum
					}
					// Softmax backward: ds = p ⊙ (dp - Σ dp⊙p).
					var dot float64
					for u := 0; u <= t; u++ {
						dot += dp[u] * row[u]
					}
					q := seq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
					gq := gseq[t*qkv.C+h*dh : t*qkv.C+h*dh+dh]
					for u := 0; u <= t; u++ {
						ds := row[u] * (dp[u] - dot) * scale
						if ds == 0 {
							continue
						}
						k := seq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
						gk := gseq[u*qkv.C+d+h*dh : u*qkv.C+d+h*dh+dh]
						for j := range gq {
							gq[j] += ds * k[j]
							gk[j] += ds * q[j]
						}
					}
				}
			}
		}
	})
	return out
}

// TestAttentionMatchesPaddedBitExact holds CausalSelfAttention to the
// padded op on ragged batches: each sequence's rows are copied out of a
// [B*T] padded qkv into a packed one, the loss Σ out⊙w is
// differentiated through both — w zero on the padded op's padding rows
// and, with a query subset, on the rows that are no query, which is all
// an unread row's output gradient can be — and outputs and qkv
// gradients of the real rows must agree bit for bit. Equal lengths make
// the offsets uniform: the packed op is then the padded op itself.
func TestAttentionMatchesPaddedBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		heads := 1 + rng.Intn(3)
		d := heads * (1 + rng.Intn(5))
		lens := make([]int, 1+rng.Intn(5))
		T := 0
		for s := range lens {
			lens[s] = 1 + rng.Intn(9)
			if trial%5 == 0 {
				lens[s] = 4 // equal lengths: no padding
			}
			T = max(T, lens[s])
		}
		padded := randParam(rng, len(lens)*T, 3*d)
		offs := []int{0}
		var real []int // padded row of each packed row
		for s, n := range lens {
			for u := 0; u < n; u++ {
				real = append(real, s*T+u)
			}
			offs = append(offs, len(real))
		}
		packed := Param(len(real), 3*d)
		for i, r := range real {
			copy(packed.Row(i), padded.Row(r))
		}
		var queries []int // nil on every third trial
		outRow := real    // padded row of each output row
		if trial%3 != 0 {
			queries, outRow = []int{}, nil
			for i, r := range real {
				if rng.Intn(3) == 0 {
					queries, outRow = append(queries, i), append(outRow, r)
				}
			}
		}

		want := causalSelfAttentionPadded(padded, heads, T)
		got := CausalSelfAttention(packed, heads, offs, queries)
		wPadded, wPacked := New(want.R, d), New(got.R, d)
		for i, r := range outRow {
			for j := 0; j < d; j++ {
				v := rng.NormFloat64()
				wPadded.Set(r, j, v)
				wPacked.Set(i, j, v)
			}
		}
		Backward(Sum(Mul(want, wPadded)))
		Backward(Sum(Mul(got, wPacked)))
		for i, r := range outRow {
			for j, v := range got.Row(i) {
				if math.Float64bits(v) != math.Float64bits(want.At(r, j)) {
					t.Fatalf("trial %d lens %v queries %v: output row %d col %d = %v, padded op %v", trial, lens, queries, i, j, v, want.At(r, j))
				}
			}
		}
		for i, r := range real {
			for j, g := range packed.Grad[i*3*d : (i+1)*3*d] {
				if pg := padded.Grad[r*3*d+j]; math.Float64bits(g) != math.Float64bits(pg) {
					t.Fatalf("trial %d lens %v queries %v: qkv gradient row %d col %d = %v, padded op %v", trial, lens, queries, i, j, g, pg)
				}
			}
		}
	}
}

// eachAxpyPath runs f once per mulRow implementation this machine has:
// "vector" as built where the CPU has AVX2, and "scalar" on axpy4's Go
// loop, which is every other machine's path.
func eachAxpyPath(t *testing.T, f func(t *testing.T)) {
	if hasAVX2 {
		t.Run("vector", f)
	}
	t.Run("scalar", func(t *testing.T) {
		defer forceScalar()()
		f(t)
	})
}

// matmulRef is the triple loop matmulInto was before it became three
// kernels, kept as the oracle of their addition order: dst += A×B for
// logical shapes [m,k]×[k,n], p ascending per element, products whose
// A-side factor is zero skipped.
func matmulRef(dst, a, b []float64, m, k, n int, transA, transB bool) {
	for i := 0; i < m; i++ {
		di := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			var av float64
			if transA {
				av = a[p*m+i]
			} else {
				av = a[i*k+p]
			}
			if av == 0 {
				continue
			}
			if transB {
				for j := 0; j < n; j++ {
					di[j] += av * b[j*k+p]
				}
			} else {
				bp := b[p*n : p*n+n]
				for j := 0; j < n; j++ {
					di[j] += av * bp[j]
				}
			}
		}
	}
}

// TestMatmulKernelsBitExact asserts Float64bits equality of the three
// products against matmulRef: random shapes on both sides of
// matmulThreshold (so both the serial and the row-split path run; CI
// repeats it under GOMAXPROCS=1 and 4), operands with scattered zeros
// and whole zero rows, and a dst that already holds non-zero values.
// VecMatInto, the sampler's entry to the forward kernel, runs on each
// trial's k and n (most k are no multiple of 4) and must overwrite
// what its dst held. It runs once per mulRow path the machine has, so
// the vector kernel and the Go loop are pinned to the same reference.
func TestMatmulKernelsBitExact(t *testing.T) { eachAxpyPath(t, testMatmulKernelsBitExact) }

func testMatmulKernelsBitExact(t *testing.T) {
	forms := []struct {
		name           string
		kern           func(dst, a, b []float64, m, k, n, lo, hi int)
		transA, transB bool
	}{
		{"A×B", mulAB, false, false},
		{"A×Bᵀ", func(dst, a, b []float64, m, k, n, lo, hi int) {
			mulAB(dst, a, transpose(nil, b, n, k), m, k, n, lo, hi)
		}, false, true},
		{"Aᵀ×B", func(dst, a, b []float64, m, k, n, lo, hi int) {
			mulAB(dst, transpose(nil, a, k, m), b, m, k, n, lo, hi)
		}, true, false},
	}
	rng := rand.New(rand.NewSource(14))
	fill := func(rows, cols int) []float64 {
		v := make([]float64, rows*cols)
		for i := range v {
			if rng.Intn(5) > 0 {
				v[i] = rng.NormFloat64()
			}
		}
		for r := 0; r < rows; r++ {
			if rng.Intn(4) == 0 {
				clear(v[r*cols : (r+1)*cols])
			}
		}
		return v
	}
	for trial := 0; trial < 60; trial++ {
		hi := 12
		if trial%2 == 1 {
			hi = 72 // up to 72³ multiply-adds: most trials cross 1<<16
		}
		m, k, n := 1+rng.Intn(hi), 1+rng.Intn(hi), 1+rng.Intn(hi)
		for _, f := range forms {
			// Stored shapes: A is [k,m] when transposed, B [n,k].
			a, b := fill(m, k), fill(k, n)
			if f.transA {
				a = fill(k, m)
			}
			if f.transB {
				b = fill(n, k)
			}
			got := make([]float64, m*n)
			for i := range got {
				got[i] = rng.NormFloat64()
			}
			want := append([]float64(nil), got...)
			matmulRef(want, a, b, m, k, n, f.transA, f.transB)
			matmulInto(f.kern, got, a, b, m, k, n)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %dx%dx%d (work %d): element %d = %x, reference %x",
						f.name, m, k, n, m*k*n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
		x, w := fill(1, k), &Tensor{R: k, C: n, Data: fill(k, n)}
		got, want := make([]float64, n), make([]float64, n)
		for i := range got {
			got[i] = rng.NormFloat64()
		}
		matmulRef(want, x, w.Data, 1, k, n, false, false)
		VecMatInto(got, x, w)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("VecMatInto %dx%d: element %d = %x, reference %x",
					k, n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// mulABtRef is the input-gradient kernel as it was before the gradient
// moved onto the forward kernel, verbatim, kept as the oracle of the
// transposed form: dst += A×Bᵀ with A [m,k] (the output gradient) and
// B [n,k] (the weights), each element a dot product of two contiguous
// rows accumulated in a register on top of what dst held.
func mulABtRef(dst, a, b []float64, m, k, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		ai := a[i*k : (i+1)*k]
		if allZero(ai) {
			continue
		}
		di := dst[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0, b1 := b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k]
			b2, b3 := b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k]
			s0, s1, s2, s3 := di[j], di[j+1], di[j+2], di[j+3]
			for p, av := range ai {
				if av != 0 {
					s0 += av * b0[p]
					s1 += av * b1[p]
					s2 += av * b2[p]
					s3 += av * b3[p]
				}
			}
			di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			bj, s := b[j*k:(j+1)*k], di[j]
			for p, av := range ai {
				if av != 0 {
					s += av * bj[p]
				}
			}
			di[j] = s
		}
	}
}

// TestInputGradientMatchesDotKernel differentiates MatMul with respect
// to its left operand and holds the gradient — the forward kernel over
// the transposed weights — to the dot-product kernel it replaced, bit
// for bit: inner and outer sizes that are no multiple of 4, shapes on
// both sides of matmulThreshold, output-gradient rows that are all
// zero, zero factors that sit beside infinite weights (skipped, or the
// sum is NaN) and a gradient buffer that already holds a contribution.
func TestInputGradientMatchesDotKernel(t *testing.T) {
	eachAxpyPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for _, sh := range [][3]int{{1, 32, 96}, {2, 1, 1}, {3, 4, 4}, {5, 7, 9}, {6, 9, 2}, {9, 32, 67}, {40, 33, 50}, {64, 32, 128}} {
			m, k, n := sh[0], sh[1], sh[2] // a [m,k] × w [k,n]
			for trial := 0; trial < 8; trial++ {
				a, w := randParam(rng, m, k), New(k, n)
				for i := range w.Data {
					w.Data[i] = rng.NormFloat64()
				}
				out := MatMul(a, w)
				for i := range out.Grad {
					if rng.Intn(5) > 0 {
						out.Grad[i] = rng.NormFloat64()
					}
				}
				for i := 0; i < m; i++ {
					if rng.Intn(3) == 0 {
						clear(out.Grad[i*n : (i+1)*n])
					}
				}
				// An output column nothing flows back through, under
				// weights that would turn a ±0 factor into NaN.
				for p := 0; p < n; p++ {
					if rng.Intn(4) > 0 {
						continue
					}
					for i := 0; i < m; i++ {
						out.Grad[i*n+p] = 0
					}
					for j := 0; j < k; j++ {
						w.Data[j*n+p] = math.Inf(1 - 2*rng.Intn(2))
					}
				}
				for i := range a.Grad {
					a.Grad[i] = rng.NormFloat64()
				}
				want := append([]float64(nil), a.Grad...)
				mulABtRef(want, out.Grad, w.Data, m, n, k, 0, m)
				Backward(out)
				for i := range want {
					if math.Float64bits(a.Grad[i]) != math.Float64bits(want[i]) {
						t.Fatalf("[%d,%d]×[%d,%d] trial %d: input gradient %d = %x, the dot kernel gives %x",
							m, k, k, n, trial, i, math.Float64bits(a.Grad[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// mulAtBRef is the weight-gradient kernel as it was before the gradient
// moved onto the forward kernel, verbatim, kept as the oracle of the
// transposed form: dst += Aᵀ×B with A stored [k,m] (the activations)
// and B [k,n] (the output gradient), p the outer loop, and the rows of
// B that are all zero skipped once instead of multiplied into every row
// of dst.
func mulAtBRef(dst, a, b []float64, m, k, n, lo, hi int) {
	p := 0
	for ; p+4 <= k; p += 4 {
		bp := b[p*n : (p+4)*n]
		if allZero(bp) {
			continue
		}
		for i := lo; i < hi; i++ {
			axpy4(dst[i*n:(i+1)*n], a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i], bp, n)
		}
	}
	for ; p < k; p++ {
		if bp := b[p*n : (p+1)*n]; !allZero(bp) {
			for i := lo; i < hi; i++ {
				axpy(dst[i*n:(i+1)*n], a[p*m+i], bp)
			}
		}
	}
}

// TestWeightGradientMatchesAtBKernelBitExact differentiates MatMul with
// respect to its right operand and holds the gradient — the forward
// kernel over the transposed activations — to the Aᵀ×B kernel it
// replaced, bit for bit: inner and outer sizes that are no multiple of
// 4, shapes on both sides of matmulThreshold, output-gradient rows that
// are all zero (the old kernel skipped them, the new one adds their ±0
// products), zero activations, whole rows of them beside output
// gradients of ±Inf (skipped, or the sum is NaN), and a gradient buffer
// that starts at +0 or already holds a contribution.
func TestWeightGradientMatchesAtBKernelBitExact(t *testing.T) {
	eachAxpyPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		for _, sh := range [][3]int{{1, 32, 96}, {2, 1, 1}, {3, 4, 4}, {5, 7, 9}, {6, 9, 2}, {9, 32, 67}, {40, 33, 50}, {64, 32, 128}, {257, 32, 13}} {
			m, k, n := sh[0], sh[1], sh[2] // a [m,k] × w [k,n]
			for trial := 0; trial < 8; trial++ {
				a, w := New(m, k), randParam(rng, k, n)
				for i := range a.Data {
					if rng.Intn(4) > 0 {
						a.Data[i] = rng.NormFloat64()
					}
				}
				out := MatMul(a, w)
				for i := range out.Grad {
					if rng.Intn(5) > 0 {
						out.Grad[i] = rng.NormFloat64()
					}
				}
				for i := 0; i < m; i++ {
					switch rng.Intn(4) {
					case 0: // a row nothing reads
						clear(out.Grad[i*n : (i+1)*n])
					case 1: // a row of zero activations beside infinite gradients
						clear(a.Data[i*k : (i+1)*k])
						for j := 0; j < n; j++ {
							out.Grad[i*n+j] = math.Inf(1 - 2*rng.Intn(2))
						}
					}
				}
				if trial%2 == 1 {
					for i := range w.Grad {
						w.Grad[i] = rng.NormFloat64()
					}
				}
				want := append([]float64(nil), w.Grad...)
				mulAtBRef(want, a.Data, out.Grad, k, m, n, 0, k)
				Backward(out)
				for i := range want {
					if math.Float64bits(w.Grad[i]) != math.Float64bits(want[i]) {
						t.Fatalf("[%d,%d]×[%d,%d] trial %d: weight gradient %d = %x, the Aᵀ×B kernel gives %x",
							m, k, k, n, trial, i, math.Float64bits(w.Grad[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// TestFrozenForwardBuildsNoTape: an op over inputs that require no
// gradients returns a plain value — no Grad, no parents, no backward
// closure keeping its inputs alive.
func TestFrozenForwardBuildsNoTape(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x, w, g, b := randParam(rng, 4, 6), randParam(rng, 6, 6), randParam(rng, 1, 6), randParam(rng, 1, 6)
	for _, p := range []*Tensor{x, w, g, b} {
		p.Detach()
	}
	outs := []*Tensor{
		MatMul(x, w), AddBias(x, g), LayerNorm(x, g, b), GELU(x), Add(x, x), Sum(x), Mean(x),
		Embedding(nil, w, []int{0, 5}), GatherRows(x, []int{3, 3}), CausalSelfAttention(x, 1, []int{0, 2, 4}, []int{1, 3}),
		CrossEntropy(x, []int{0, 1, 2, 3}), GatherLogSoftmax(x, []int{0, 1, 2, 3}),
	}
	for i, o := range outs {
		if o.Requires() || o.Grad != nil || o.prev != nil || o.back != nil {
			t.Errorf("op %d over detached inputs left a tape: requires=%v grad=%v prev=%d back=%v",
				i, o.Requires(), o.Grad != nil, len(o.prev), o.back != nil)
		}
	}
}

// BenchmarkMatmulKernels times the products a campaign on the test-scale
// model runs (core.TestPipelineConfig: Dim 32, 2 heads, context 48,
// vocabulary up to 512): the sampler's matvecs — LM head, QKV and output
// projections, the MLP's two layers, one head's attention scores over a
// full context and its weighted sum of values — and the trainer's LM
// head over a few hundred scored rows with its two gradients, each on
// the vector kernel and on the Go loop. m, k, n are the logical shape
// dst[m,n] += A[m,k]×B[k,n]; the input gradient stores B as [n,k], the
// weight gradient A as [k,m], and each pays its transpose here as it
// does in MatMul.
func BenchmarkMatmulKernels(b *testing.B) {
	const d, dh, ctx, v, rows = 32, 16, 48, 512, 256
	vecMat := func(dst, a, w []float64, m, k, n int) { VecMatInto(dst, a, &Tensor{R: k, C: n, Data: w}) }
	for _, c := range []struct {
		name    string
		m, k, n int
		run     func(dst, a, b []float64, m, k, n int)
	}{
		{"head-1x32x512", 1, d, v, vecMat},
		{"qkv-1x32x96", 1, d, 3 * d, vecMat},
		{"proj-1x32x32", 1, d, d, vecMat},
		{"fc-1x32x128", 1, d, 4 * d, vecMat},
		{"mlp-1x128x32", 1, 4 * d, d, vecMat},
		{"scores-1x16x48", 1, dh, ctx, vecMat},
		{"attn-1x48x16", 1, ctx, dh, vecMat},
		{"train-forward-256x32x512", rows, d, v, func(dst, a, b []float64, m, k, n int) {
			matmulInto(mulAB, dst, a, b, m, k, n)
		}},
		{"train-input-grad-256x512x32", rows, v, d, func(dst, a, b []float64, m, k, n int) {
			matmulInto(mulAB, dst, a, transpose(nil, b, n, k), m, k, n)
		}},
		{"train-weight-grad-32x256x512", d, rows, v, func(dst, a, b []float64, m, k, n int) {
			matmulInto(mulAB, dst, transpose(nil, a, k, m), b, m, k, n)
		}},
	} {
		rng := rand.New(rand.NewSource(22))
		dst, x, y := make([]float64, c.m*c.n), make([]float64, c.m*c.k), make([]float64, c.k*c.n)
		for _, v := range [][]float64{x, y} {
			for i := range v {
				v[i] = rng.NormFloat64()
			}
		}
		run := func(b *testing.B) {
			b.SetBytes(int64(8 * (len(dst) + len(x) + len(y))))
			clear(dst)
			for i := 0; i < b.N; i++ {
				c.run(dst, x, y, c.m, c.k, c.n)
			}
			b.ReportMetric(float64(b.N)*float64(c.m*c.k*c.n)/float64(b.Elapsed().Nanoseconds()), "muladds/ns")
		}
		b.Run(c.name, func(b *testing.B) {
			if hasAVX2 {
				b.Run("vector", run)
			}
			b.Run("scalar", func(b *testing.B) {
				defer forceScalar()()
				run(b)
			})
		})
	}
}
