package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"chatfuzz/internal/ml/tensor"
)

func tinyConfig() Config {
	return Config{Vocab: 17, Ctx: 16, Dim: 16, Heads: 2, Layers: 2}
}

func TestModelShapesAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewGPT(tinyConfig(), rng)
	if got := m.NumParams(); got <= 0 {
		t.Fatal("no parameters")
	}
	logits := tensor.MatMul(m.Hidden(nil, [][]int{{1, 2, 3}, {4, 5}}, nil), m.Head)
	if logits.R != 5 || logits.C != 17 {
		t.Errorf("logits shape %dx%d, want 5x17: one row per token", logits.R, logits.C)
	}
	h := m.Hidden(nil, [][]int{{1, 2, 3}}, nil)
	values := m.Values(h)
	if values.R != 3 || values.C != 1 {
		t.Errorf("values shape %dx%d, want 3x1", values.R, values.C)
	}
}

// TestOverfitTinyCorpus is the fundamental LM sanity check: on a tiny
// repetitive dataset the loss must fall far below the uniform-random
// level, and sampling must reproduce the pattern.
func TestOverfitTinyCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := tinyConfig()
	m := NewGPT(cfg, rng)
	opt := NewAdam(m.Params(), 3e-3)

	// The "language": 4 5 6 7 4 5 6 7 ...
	seq := []int{4, 5, 6, 7, 4, 5, 6, 7, 4, 5, 6, 7}
	batch := [][]int{seq, seq, seq, seq}

	var first, last float64
	for step := 0; step < 150; step++ {
		opt.ZeroGrad()
		loss, val := m.LMLoss(nil, batch)
		if step == 0 {
			first = val
		}
		last = val
		tensor.Backward(loss)
		opt.ClipGradNorm(1)
		opt.Step()
	}
	uniform := math.Log(float64(cfg.Vocab))
	if first < uniform*0.5 {
		t.Errorf("initial loss %.3f suspiciously low (uniform=%.3f)", first, uniform)
	}
	if last > 0.2 {
		t.Errorf("failed to overfit: final loss %.3f", last)
	}

	// Greedy sampling continues the pattern.
	res := NewSampler(m).Generate(rng, []int{4, 5, 6}, 5, 0, 0, -1, true)
	want := []int{7, 4, 5, 6, 7}
	for i, id := range res.Tokens[3:] {
		if id != want[i] {
			t.Fatalf("generated %v, want continuation %v", res.Tokens[3:], want)
		}
	}
}

// TestSamplerMatchesBatchForward verifies the KV-cache incremental
// path computes exactly the same logits as the tape-based batch path.
func TestSamplerMatchesBatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewGPT(tinyConfig(), rng)
	seq := []int{3, 9, 1, 14, 7, 2}

	logits := tensor.MatMul(m.Hidden(nil, [][]int{seq}, nil), m.Head)

	s := NewSampler(m)
	// split runs the backbone alone up to a position and the heads only
	// there, as Generate does over a prompt: the heads of the earlier
	// positions must not be something the later ones depend on.
	split := NewSampler(m)
	for pos, id := range seq {
		row, value := s.Next(id)
		for j := range row {
			if math.Abs(row[j]-logits.At(pos, j)) > 1e-9 {
				t.Fatalf("pos %d logit %d: incremental %.12f vs batch %.12f",
					pos, j, row[j], logits.At(pos, j))
			}
		}
		split.Reset()
		for _, prev := range seq[:pos+1] {
			split.step(prev)
		}
		late := split.lmHead()
		for j := range row {
			if math.Float64bits(late[j]) != math.Float64bits(row[j]) {
				t.Fatalf("pos %d logit %d: backbone-then-head %v vs Next %v", pos, j, late[j], row[j])
			}
		}
		if v := split.value(); math.Float64bits(v) != math.Float64bits(value) {
			t.Fatalf("pos %d value: backbone-then-head %v vs Next %v", pos, v, value)
		}
	}
}

func TestSamplerValueMatchesBatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewGPT(tinyConfig(), rng)
	seq := []int{5, 11, 2}
	h := m.Hidden(nil, [][]int{seq}, nil)
	values := m.Values(h)

	s := NewSampler(m)
	for pos, id := range seq {
		_, v := s.Next(id)
		if math.Abs(v-values.At(pos, 0)) > 1e-9 {
			t.Fatalf("pos %d value: incremental %.12f vs batch %.12f", pos, v, values.At(pos, 0))
		}
	}
}

// refSampler is the Sampler's backbone as it was before attention moved
// onto the row kernel: K and V cached position-major ([Ctx*D], the heads
// side by side in a row), each score a dot product accumulated in a
// register, each output a running sum over the positions. stepRef is
// that step verbatim.
type refSampler struct {
	m    *GPT
	k, v [][]float64
	pos  int

	x, h, attn, proj, mlp, qkv, fc, scores, logits []float64
}

func newRefSampler(m *GPT) *refSampler {
	d := m.Cfg.Dim
	s := &refSampler{
		m: m, k: make([][]float64, m.Cfg.Layers), v: make([][]float64, m.Cfg.Layers),
		x: make([]float64, d), h: make([]float64, d), attn: make([]float64, d), proj: make([]float64, d),
		mlp: make([]float64, d), qkv: make([]float64, 3*d), fc: make([]float64, 4*d),
		scores: make([]float64, m.Cfg.Ctx), logits: make([]float64, m.Cfg.Vocab),
	}
	for l := range s.k {
		s.k[l], s.v[l] = make([]float64, m.Cfg.Ctx*d), make([]float64, m.Cfg.Ctx*d)
	}
	return s
}

func (s *refSampler) stepRef(id int) {
	m := s.m
	d := m.Cfg.Dim
	if s.pos >= m.Cfg.Ctx {
		panic("nn: sampler past model context")
	}

	x, h, attn, proj, mlp, qkv, fc := s.x, s.h, s.attn, s.proj, s.mlp, s.qkv, s.fc
	te := m.TokEmb.Row(id)
	pe := m.PosEmb.Row(s.pos)
	for i := range x {
		x[i] = te[i] + pe[i]
	}

	heads := m.Cfg.Heads
	dh := d / heads
	scale := 1 / math.Sqrt(float64(dh))
	T := s.pos + 1

	for l, blk := range m.Blocks {
		layerNormVec(h, x, blk.LN1g, blk.LN1b)
		tensor.VecMatInto(qkv, h, blk.Wqkv)
		for i := range qkv {
			qkv[i] += blk.Bqkv.Data[i]
		}
		q := qkv[:d]
		keys, vals := s.k[l][:T*d], s.v[l][:T*d]
		copy(keys[s.pos*d:], qkv[d:2*d])
		copy(vals[s.pos*d:], qkv[2*d:])

		for i := range attn {
			attn[i] = 0
		}
		for hd := 0; hd < heads; hd++ {
			qh := q[hd*dh : (hd+1)*dh]
			// Scores over all cached positions.
			maxScore := math.Inf(-1)
			scores := s.scores[:T]
			for u := 0; u < T; u++ {
				kr := keys[u*d+hd*dh : u*d+hd*dh+dh]
				sum := 0.0
				for j := range qh {
					sum += qh[j] * kr[j]
				}
				scores[u] = sum * scale
				if scores[u] > maxScore {
					maxScore = scores[u]
				}
			}
			var z float64
			for u := range scores {
				scores[u] = math.Exp(scores[u] - maxScore)
				z += scores[u]
			}
			for u := 0; u < T; u++ {
				p := scores[u] / z
				vr := vals[u*d+hd*dh : u*d+hd*dh+dh]
				for j := 0; j < dh; j++ {
					attn[hd*dh+j] += p * vr[j]
				}
			}
		}
		tensor.VecMatInto(proj, attn, blk.Wproj)
		for i := range x {
			x[i] += proj[i] + blk.Bproj.Data[i]
		}
		layerNormVec(h, x, blk.LN2g, blk.LN2b)
		tensor.VecMatInto(fc, h, blk.Wfc)
		for i := range fc {
			fc[i] = tensor.GELUScalar(fc[i] + blk.Bfc.Data[i])
		}
		tensor.VecMatInto(mlp, fc, blk.Wout)
		for i := range x {
			x[i] += mlp[i] + blk.Bout.Data[i]
		}
	}

	layerNormVec(h, x, m.LNfg, m.LNfb)
	s.pos++
}

// TestSamplerStepMatchesReference holds step to stepRef bit for bit at
// every position of a full context: the final state h, every cached key
// and value (in each one's layout) and the logits. The models are the
// tiny one and the campaign's shape (core.TestPipelineConfig), that
// shape with query, key and value components whose weights are exactly
// zero (the row kernel skips a zero query component; the dot product
// added its ±0 products), and that shape with sharpened query and key
// weights, whose attention weights underflow to exactly zero (skipped
// likewise). Each run also zeroes one position's cached K and V in both
// samplers before going on.
func TestSamplerStepMatchesReference(t *testing.T) {
	campaign := Config{Vocab: 300, Ctx: 48, Dim: 32, Heads: 2, Layers: 1}
	zeroCols := NewGPT(campaign, rand.New(rand.NewSource(26)))
	for _, c := range []int{3, 17, 18, 32 + 5, 64 + 20} { // query components of both heads, a key's, a value's
		for p := 0; p < campaign.Dim; p++ {
			zeroCols.Blocks[0].Wqkv.Set(p, c, 0)
		}
		zeroCols.Blocks[0].Bqkv.Data[c] = 0
	}
	sharp := NewGPT(campaign, rand.New(rand.NewSource(27)))
	for p := 0; p < campaign.Dim; p++ {
		for c := 0; c < 2*campaign.Dim; c++ { // queries and keys
			sharp.Blocks[0].Wqkv.Set(p, c, 300*sharp.Blocks[0].Wqkv.At(p, c))
		}
	}

	underflows := 0
	for _, c := range []struct {
		name string
		m    *GPT
	}{
		{"tiny", NewGPT(tinyConfig(), rand.New(rand.NewSource(24)))},
		{"campaign", NewGPT(campaign, rand.New(rand.NewSource(25)))},
		{"zero columns", zeroCols},
		{"sharp", sharp},
	} {
		name, m := c.name, c.m
		cfg := m.Cfg
		d, ctx, dh := cfg.Dim, cfg.Ctx, cfg.Dim/cfg.Heads
		rng := rand.New(rand.NewSource(28))
		s, ref := NewSampler(m), newRefSampler(m)
		for pos := 0; pos < ctx; pos++ {
			id := rng.Intn(cfg.Vocab)
			s.step(id)
			ref.stepRef(id)
			if pos == 2 {
				for l := range m.Blocks {
					for c := 0; c < d; c++ {
						s.k[l][c*ctx+pos], ref.k[l][pos*d+c] = 0, 0
						s.v[l][(c/dh*ctx+pos)*dh+c%dh], ref.v[l][pos*d+c] = 0, 0
					}
				}
			}
			tensor.VecMatInto(ref.logits, ref.h, m.Head)
			same := func(what string, got, want []float64) {
				t.Helper()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s pos %d: %s[%d] = %v, reference %v", name, pos, what, i, got[i], want[i])
					}
				}
			}
			same("h", s.h, ref.h)
			same("logits", s.lmHead(), ref.logits)
			for l := range m.Blocks {
				for u := 0; u <= pos; u++ {
					for c := 0; c < d; c++ {
						same("K", []float64{s.k[l][c*ctx+u]}, []float64{ref.k[l][u*d+c]})
						same("V", []float64{s.v[l][(c/dh*ctx+u)*dh+c%dh]}, []float64{ref.v[l][u*d+c]})
					}
				}
			}
			for _, w := range s.scores[:pos+1] {
				if w == 0 {
					underflows++
				}
			}
		}
	}
	if underflows == 0 {
		t.Error("no attention weight underflowed to zero: the sharp model does not reach the kernel's skip")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewGPT(tinyConfig(), rng)
	c := m.Clone()
	before := c.TokEmb.Data[0]
	m.TokEmb.Data[0] += 42
	if c.TokEmb.Data[0] != before {
		t.Error("clone shares storage with original")
	}
	// Both produce identical outputs until the original diverges.
	m.TokEmb.Data[0] -= 42
	a := tensor.MatMul(m.Hidden(nil, [][]int{{1, 2}}, nil), m.Head)
	b := tensor.MatMul(c.Hidden(nil, [][]int{{1, 2}}, nil), c.Head)
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > 1e-12 {
			t.Fatal("clone diverges from original")
		}
	}
}

func TestGenerateRespectsEOSAndContext(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := tinyConfig()
	m := NewGPT(cfg, rng)
	res := NewSampler(m).Generate(rng, []int{1}, 100, 1.0, 0, -1, true)
	if len(res.Tokens) > cfg.Ctx {
		t.Errorf("generated past context: %d tokens", len(res.Tokens))
	}
	if len(res.LogProbs) != len(res.Tokens)-res.PromptN {
		t.Errorf("logprobs length %d vs generated %d", len(res.LogProbs), len(res.Tokens)-res.PromptN)
	}
	for _, lp := range res.LogProbs {
		if lp > 0 || math.IsNaN(lp) {
			t.Errorf("invalid log-prob %v", lp)
		}
	}
}

func TestSampleTokenTemperatureZeroIsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	logits := []float64{0.1, 2.5, -1, 2.4}
	scratch := make([]float64, 2*len(logits))
	for i := 0; i < 10; i++ {
		if id := sampleToken(rng, logits, 0, 0, scratch); id != 1 {
			t.Fatalf("argmax sampling returned %d", id)
		}
	}
}

func TestSampleTokenTopKRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := []float64{10, 9, -50, -50, -50}
	scratch := make([]float64, 2*len(logits))
	for i := 0; i < 100; i++ {
		id := sampleToken(rng, logits, 1.0, 2, scratch)
		if id != 0 && id != 1 {
			t.Fatalf("top-2 sampling escaped the top set: %d", id)
		}
	}
}

// sampleTokenRef is top-k sampling written out in full: mask what is
// below the k-th largest scaled logit to -Inf, softmax the whole
// vocabulary, walk the cumulative distribution.
func sampleTokenRef(rng *rand.Rand, logits []float64, temperature float64, topK int) int {
	if temperature <= 0 {
		return argmax(logits)
	}
	probs := make([]float64, len(logits))
	for i, v := range logits {
		probs[i] = v / temperature
	}
	if topK > 0 && topK < len(probs) {
		sorted := append([]float64(nil), probs...)
		sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
		for i := range probs {
			if probs[i] < sorted[topK-1] {
				probs[i] = math.Inf(-1)
			}
		}
	}
	tensor.SoftmaxInto(probs, probs)
	r := rng.Float64()
	acc := 0.0
	last := 0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
		if p > 0 {
			last = i
		}
	}
	return last
}

// TestSampleTokenMatchesFullSoftmax: exponentiating only the top-k
// survivors draws the same index from the same RNG position as the
// softmax over the whole masked vocabulary — with ties at the cut, a
// cut that keeps everything, no cut, and greedy decoding.
func TestSampleTokenMatchesFullSoftmax(t *testing.T) {
	const V = 37
	gen := rand.New(rand.NewSource(16))
	scratch := make([]float64, 2*V)
	for trial := 0; trial < 400; trial++ {
		logits := make([]float64, V)
		for i := range logits {
			// A coarse grid, so that values repeat and the cut is often tied.
			logits[i] = float64(gen.Intn(12)) / 2
			if trial%2 == 0 {
				logits[i] += gen.NormFloat64()
			}
		}
		for _, topK := range []int{0, 1, 2, 16, V - 1, V, V + 5} {
			for _, temperature := range []float64{0, 0.5, 1, 1.7} {
				seed := gen.Int63()
				a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got := sampleToken(a, logits, temperature, topK, scratch)
				want := sampleTokenRef(b, logits, temperature, topK)
				if got != want {
					t.Fatalf("trial %d topK %d temperature %v: index %d, full softmax %d", trial, topK, temperature, got, want)
				}
				if a.Int63() != b.Int63() {
					t.Fatalf("trial %d topK %d temperature %v: RNG left at a different draw", trial, topK, temperature)
				}
			}
		}
	}
}

// constSource is a rand.Source that returns one value for ever.
type constSource int64

func (c constSource) Int63() int64 { return int64(c) }
func (constSource) Seed(int64)     {}

// TestSampleTokenRoundingStaysInsideTopK: ten equal survivors have
// probability 0.1 each, and ten 0.1s sum to 1 - 2^-53 — the largest
// value Float64 can return, so that draw is below no running sum. It
// must take the last survivor (9), not the last index of the
// vocabulary (11), which top-k removed.
func TestSampleTokenRoundingStaysInsideTopK(t *testing.T) {
	logits := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -5, -5}
	rng := rand.New(constSource(1<<63 - 1024))
	if r := rng.Float64(); r != 1-1.0/(1<<53) {
		t.Fatalf("the constant source draws %v, not 1 - 2^-53", r)
	}
	if id := sampleToken(rng, logits, 1, 10, make([]float64, 2*len(logits))); id != 9 {
		t.Fatalf("sampled index %d; the top 10 are indices 0-9", id)
	}
}

// generateRef is generation written on Next alone: both heads at every
// position, prompt included, and every sampled token but eos fed back
// whether or not anything is sampled after it. Generate skips the work
// nothing reads and must return exactly this.
func generateRef(m *GPT, rng *rand.Rand, prompt []int, maxNew int, temperature float64, topK, eos int) GenerateResult {
	s := NewSampler(m)
	res := GenerateResult{PromptN: len(prompt), Tokens: append([]int(nil), prompt...)}
	var logits []float64
	var value float64
	for _, id := range prompt {
		logits, value = s.Next(id)
	}
	for n := 0; len(prompt) > 0 && n < maxNew && s.Pos() < m.Cfg.Ctx; n++ {
		id := sampleTokenRef(rng, logits, temperature, topK)
		res.Tokens = append(res.Tokens, id)
		res.LogProbs = append(res.LogProbs, tensor.LogSoftmaxAt(logits, id))
		res.Values = append(res.Values, value)
		if id == eos {
			break
		}
		logits, value = s.Next(id)
	}
	return res
}

// TestGeneratePromptEdges walks the prompt lengths around the two
// limits: an empty prompt generates nothing, a prompt that fills the
// context generates nothing, one token short of it generates one, and
// one token past it panics in the sampler. Every case that returns
// must equal generateRef bit for bit, recording or not, and leave the
// RNG where generateRef leaves it.
func TestGeneratePromptEdges(t *testing.T) {
	cfg := tinyConfig()
	m := NewGPT(cfg, rand.New(rand.NewSource(17)))
	promptOf := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = 1 + i%(cfg.Vocab-1)
		}
		return p
	}
	cases := []struct {
		name    string
		prompt  []int
		maxNew  int
		eos     int
		wantGen int // generated tokens; -1 when only generateRef knows
		panics  bool
	}{
		{name: "empty", prompt: nil, maxNew: 8, eos: -1, wantGen: 0},
		{name: "one token to the context", prompt: promptOf(1), maxNew: 100, eos: -1, wantGen: cfg.Ctx - 1},
		{name: "budget", prompt: promptOf(3), maxNew: 5, eos: -1, wantGen: 5},
		{name: "no budget", prompt: promptOf(3), maxNew: 0, eos: -1, wantGen: 0},
		{name: "eos", prompt: promptOf(2), maxNew: 12, eos: 4, wantGen: -1},
		{name: "Ctx-1", prompt: promptOf(cfg.Ctx - 1), maxNew: 8, eos: -1, wantGen: 1},
		{name: "exactly Ctx", prompt: promptOf(cfg.Ctx), maxNew: 8, eos: -1, wantGen: 0},
		{name: "Ctx+1", prompt: promptOf(cfg.Ctx + 1), maxNew: 8, eos: -1, panics: true},
	}
	s := NewSampler(m) // shared: a generation must not depend on the one before
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.panics {
				defer func() {
					if r := recover(); r != "nn: sampler past model context" {
						t.Errorf("recovered %v, want the sampler's context panic", r)
					}
				}()
				NewSampler(m).Generate(rand.New(rand.NewSource(1)), c.prompt, c.maxNew, 0.9, 5, c.eos, true)
				t.Fatal("no panic")
			}
			for seed := int64(1); seed <= 20; seed++ {
				a, b, q := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				want := generateRef(m, a, c.prompt, c.maxNew, 0.9, 5, c.eos)
				got := s.Generate(b, c.prompt, c.maxNew, 0.9, 5, c.eos, true)
				quiet := s.Generate(q, c.prompt, c.maxNew, 0.9, 5, c.eos, false)
				gen := len(got.Tokens) - got.PromptN
				if c.wantGen >= 0 && gen != c.wantGen {
					t.Fatalf("seed %d: generated %d tokens, want %d", seed, gen, c.wantGen)
				}
				if got.PromptN != len(c.prompt) || !slices.Equal(got.Tokens, want.Tokens) || !slices.Equal(quiet.Tokens, want.Tokens) {
					t.Fatalf("seed %d: tokens %v (unrecorded %v), reference %v", seed, got.Tokens, quiet.Tokens, want.Tokens)
				}
				if len(got.LogProbs) != gen || len(got.Values) != gen || quiet.LogProbs != nil || quiet.Values != nil {
					t.Fatalf("seed %d: %d log-probs and %d values for %d tokens; unrecorded %d and %d",
						seed, len(got.LogProbs), len(got.Values), gen, len(quiet.LogProbs), len(quiet.Values))
				}
				for i := range want.LogProbs {
					if math.Float64bits(got.LogProbs[i]) != math.Float64bits(want.LogProbs[i]) ||
						math.Float64bits(got.Values[i]) != math.Float64bits(want.Values[i]) {
						t.Fatalf("seed %d token %d: (logp, value) = (%v, %v), reference (%v, %v)",
							seed, i, got.LogProbs[i], got.Values[i], want.LogProbs[i], want.Values[i])
					}
				}
				if x, y, z := a.Int63(), b.Int63(), q.Int63(); x != y || x != z {
					t.Fatalf("seed %d: RNG left at a different draw", seed)
				}
			}
		})
	}
}

// TestGenerateAllocatesOnlyItsResult pins the steady-state allocation
// budget of a generation on a reused Sampler: the token slice, and for
// a learner the log-probability and value slices — no per-call
// scratch, no K/V growth.
func TestGenerateAllocatesOnlyItsResult(t *testing.T) {
	m := NewGPT(tinyConfig(), rand.New(rand.NewSource(18)))
	s := NewSampler(m)
	rng := rand.New(rand.NewSource(19))
	prompt := []int{1, 5, 9}
	for _, c := range []struct {
		record bool
		want   float64
	}{{false, 1}, {true, 3}} {
		got := testing.AllocsPerRun(100, func() {
			s.Generate(rng, prompt, 10, 1.0, 4, -1, c.record)
		})
		if got != c.want {
			t.Errorf("record=%v: %.1f allocations per generation, want %.0f", c.record, got, c.want)
		}
	}
}

func TestAdamReducesLossOnQuadratic(t *testing.T) {
	p := tensor.Param(1, 4)
	copy(p.Data, []float64{5, -3, 2, 8})
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	for i := 0; i < 300; i++ {
		opt.ZeroGrad()
		loss := tensor.Mean(tensor.Square(p))
		tensor.Backward(loss)
		opt.Step()
	}
	for i, v := range p.Data {
		if math.Abs(v) > 0.05 {
			t.Errorf("param %d did not converge to 0: %v", i, v)
		}
	}
}

// TestAdamResetMatchesFresh: steps after Reset are bit for bit those
// of a fresh optimizer over the same parameters from the same values.
func TestAdamResetMatchesFresh(t *testing.T) {
	steps := func(opt *Adam, p *tensor.Tensor, n int) {
		for i := 0; i < n; i++ {
			opt.ZeroGrad()
			tensor.Backward(tensor.Mean(tensor.Square(tensor.Scale(p, 0.5))))
			opt.Step()
		}
	}
	start := []float64{5, -3, 2, 8}
	p := tensor.Param(1, 4)
	copy(p.Data, start)
	used := NewAdam([]*tensor.Tensor{p}, 0.1)
	steps(used, p, 7)
	copy(p.Data, start)
	used.Reset()
	steps(used, p, 5)

	q := tensor.Param(1, 4)
	copy(q.Data, start)
	steps(NewAdam([]*tensor.Tensor{q}, 0.1), q, 5)
	for i := range q.Data {
		if math.Float64bits(p.Data[i]) != math.Float64bits(q.Data[i]) {
			t.Fatalf("param %d after Reset: %v, fresh optimizer %v", i, p.Data[i], q.Data[i])
		}
	}
}

func TestGradNormClip(t *testing.T) {
	p := tensor.Param(1, 2)
	p.Grad[0], p.Grad[1] = 3, 4 // norm 5
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	pre := opt.ClipGradNorm(1)
	if math.Abs(pre-5) > 1e-9 {
		t.Errorf("pre-clip norm = %v, want 5", pre)
	}
	if n := opt.GradNorm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("post-clip norm = %v, want 1", n)
	}
}

func TestFlattenSetFlatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewGPT(tinyConfig(), rng)
	flat := m.FlattenParams(nil)
	if len(flat) != m.NumParams() {
		t.Fatalf("flattened %d scalars, NumParams %d", len(flat), m.NumParams())
	}
	if got := NumParamsOf(m.Cfg); got != m.NumParams() {
		t.Fatalf("NumParamsOf = %d, model has %d", got, m.NumParams())
	}

	m2 := NewGPT(tinyConfig(), rand.New(rand.NewSource(10)))
	if err := m2.SetFlatParams(flat); err != nil {
		t.Fatalf("SetFlatParams: %v", err)
	}
	flat2 := m2.FlattenParams(nil)
	for i := range flat {
		if flat[i] != flat2[i] {
			t.Fatalf("scalar %d differs after round trip: %v vs %v", i, flat[i], flat2[i])
		}
	}
	if err := m2.SetFlatParams(flat[:len(flat)-1]); err == nil {
		t.Error("SetFlatParams accepted a short vector")
	}
}

func TestEncodeDecodeWeightsBitExact(t *testing.T) {
	w := []float64{0, 1, -1, math.Pi, 1e-300, -1e300, math.Inf(1), 0.1 + 0.2}
	s := EncodeWeights(w)
	if s2 := EncodeWeights(w); s2 != s {
		t.Fatal("encoding is not stable across calls")
	}
	got, err := DecodeWeights(s)
	if err != nil {
		t.Fatalf("DecodeWeights: %v", err)
	}
	if len(got) != len(w) {
		t.Fatalf("decoded %d scalars, want %d", len(got), len(w))
	}
	for i := range w {
		if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
			t.Errorf("scalar %d not bit-exact: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(w[i]))
		}
	}
	if _, err := DecodeWeights("not base64!!"); err == nil {
		t.Error("DecodeWeights accepted invalid base64")
	}
	if _, err := DecodeWeights("AAAA"); err == nil {
		t.Error("DecodeWeights accepted a length not divisible by 8")
	}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func weightsSHA(w []float64) string {
	sum := sha256.Sum256([]byte(EncodeWeights(w)))
	return hex.EncodeToString(sum[:])
}

// TestGoldenPretrain pins the pretraining path bit for bit: the
// SHA-256 of the parameters after 20 LMLoss/Adam steps on a padded
// mixed-length batch, recorded on the triple-loop matmul. The model
// is wide enough for its matmuls to cross the parallel threshold; CI
// runs the test under GOMAXPROCS=1 and 4.
func TestGoldenPretrain(t *testing.T) {
	const want = "f2944cc36827138279e981e3b59040a1b07efd2af2e4324f933bfe6e02e30590"
	rng := rand.New(rand.NewSource(41))
	m := NewGPT(Config{Vocab: 29, Ctx: 24, Dim: 32, Heads: 4, Layers: 2}, rng)
	opt := NewAdam(m.Params(), 1e-3)
	batch := make([][]int, 6)
	for i := range batch {
		batch[i] = make([]int, 7+5*(i%4))
		for j := range batch[i] {
			batch[i][j] = 1 + rng.Intn(28)
		}
	}
	for step := 0; step < 20; step++ {
		opt.ZeroGrad()
		loss, _ := m.LMLoss(nil, batch)
		tensor.Backward(loss)
		opt.ClipGradNorm(1)
		opt.Step()
	}
	if got := weightsSHA(m.FlattenParams(nil)); got != want {
		t.Errorf("parameters after 20 pretraining steps: sha256 %s, want %s", got, want)
	}
}

// TestGoldenGenerate pins the sampler bit for bit: tokens, log-probs
// and values of temperature/top-k generations, recorded before the
// sampler's scratch moved onto the struct and before top-k used a
// selection instead of a full sort.
func TestGoldenGenerate(t *testing.T) {
	const want = "ff30ce53e9eb75a46ec1b5d089c1c88b2afec88586d43bee17fc3481de8946ad"
	rng := rand.New(rand.NewSource(42))
	m := NewGPT(Config{Vocab: 29, Ctx: 24, Dim: 32, Heads: 4, Layers: 2}, rng)
	var all []float64
	for i, topK := range []int{0, 1, 5, 28, 29, 40} {
		res := NewSampler(m).Generate(rng, []int{1, 2 + i}, 20, 0.7+0.2*float64(i), topK, 3, true)
		for _, id := range res.Tokens {
			all = append(all, float64(id))
		}
		all = append(all, res.LogProbs...)
		all = append(all, res.Values...)
	}
	if got := weightsSHA(all); got != want {
		t.Errorf("generations: sha256 %s, want %s", got, want)
	}
}

// hiddenPaddedRef is the batch forward as it was before batches were
// packed, kept as the oracle of the packed one: every sequence padded
// with padTok to the longest, T, positions 0..T-1 in each, every block in
// full on all B*T rows. Row s*T+t of the result is position t of
// sequence s. Uniform offsets make the attention the fixed-seqLen one
// (internal/ml/tensor's TestAttentionMatchesPaddedBitExact holds it to
// the old op).
func hiddenPaddedRef(m *GPT, seqs [][]int, padTok int) (*tensor.Tensor, int) {
	T := 0
	for _, seq := range seqs {
		T = max(T, len(seq))
	}
	var ids, posIDs []int
	offs := []int{0}
	for _, seq := range seqs {
		for t := 0; t < T; t++ {
			id := padTok
			if t < len(seq) {
				id = seq[t]
			}
			ids, posIDs = append(ids, id), append(posIDs, t)
		}
		offs = append(offs, len(ids))
	}
	x := tensor.Add(tensor.Embedding(nil, m.TokEmb, ids), tensor.Embedding(nil, m.PosEmb, posIDs))
	for _, b := range m.Blocks {
		h := tensor.LayerNorm(x, b.LN1g, b.LN1b)
		qkv := tensor.AddBias(tensor.MatMul(h, b.Wqkv), b.Bqkv)
		att := tensor.CausalSelfAttention(qkv, m.Cfg.Heads, offs, nil)
		x = tensor.Add(x, tensor.AddBias(tensor.MatMul(att, b.Wproj), b.Bproj))
		h2 := tensor.LayerNorm(x, b.LN2g, b.LN2b)
		mlp := tensor.GELU(tensor.AddBias(tensor.MatMul(h2, b.Wfc), b.Bfc))
		x = tensor.Add(x, tensor.AddBias(tensor.MatMul(mlp, b.Wout), b.Bout))
	}
	return tensor.LayerNorm(x, m.LNfg, m.LNfb), T
}

// paddedRows maps packed rows of seqs (nil = all) to their rows in the
// [B*T] layout.
func paddedRows(seqs [][]int, rows []int, T int) []int {
	var all []int
	for s, seq := range seqs {
		for t := range seq {
			all = append(all, s*T+t)
		}
	}
	if rows == nil {
		return all
	}
	out := make([]int, len(rows))
	for i, r := range rows {
		out[i] = all[r]
	}
	return out
}

// packedVsPadded runs seqs through Hidden (packed, the rows given) on
// one clone of m and through hiddenPaddedRef plus a gather of the same
// positions on another, differentiates the seeded scalar loss Σ h⊙w
// (a quarter of w's rows zero, as a clipped PPO row's gradient is)
// through both, and fails on the first bit that differs in a hidden
// state or in any parameter's gradient. It returns the packed side's
// hidden states followed by its gradients.
func packedVsPadded(t testing.TB, m *GPT, seqs [][]int, rows []int, padTok int, seed int64) []float64 {
	t.Helper()
	packedM, paddedM := m.Clone(), m.Clone()
	packed := packedM.Hidden(nil, seqs, rows)
	full, T := hiddenPaddedRef(paddedM, seqs, padTok)
	padded := tensor.GatherRows(full, paddedRows(seqs, rows, T))
	if packed.R != padded.R || packed.C != padded.C {
		t.Fatalf("packed hidden is %dx%d, padded gather %dx%d", packed.R, packed.C, padded.R, padded.C)
	}
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(packed.R, packed.C)
	for i := 0; i < w.R; i++ {
		if rng.Intn(4) > 0 {
			for j := range w.Row(i) {
				w.Row(i)[j] = rng.NormFloat64()
			}
		}
	}
	tensor.Backward(tensor.Sum(tensor.Mul(packed, w)))
	tensor.Backward(tensor.Sum(tensor.Mul(padded, w)))
	out := append([]float64(nil), packed.Data...)
	for i, v := range packed.Data {
		if math.Float64bits(v) != math.Float64bits(padded.Data[i]) {
			t.Fatalf("hidden row %d col %d: packed %v, padded %v", i/packed.C, i%packed.C, v, padded.Data[i])
		}
	}
	want := paddedM.Params()
	for pi, p := range packedM.Params() {
		for i, g := range p.Grad {
			if math.Float64bits(g) != math.Float64bits(want[pi].Grad[i]) {
				t.Fatalf("parameter %d gradient %d: packed %v, padded %v", pi, i, g, want[pi].Grad[i])
			}
		}
		out = append(out, p.Grad...)
	}
	return out
}

// scoredStyleRows picks, as PPO does, the rows that predict the tokens
// after a random prompt in every sequence of two tokens or more.
func scoredStyleRows(rng *rand.Rand, seqs [][]int) []int {
	rows := []int{}
	off := 0
	for _, seq := range seqs {
		if len(seq) >= 2 {
			promptN := 1 + rng.Intn(len(seq)-1)
			for pos := promptN; pos < len(seq); pos++ {
				rows = append(rows, off+pos-1)
			}
		}
		off += len(seq)
	}
	return rows
}

func allRows(seqs [][]int) []int {
	rows := []int{}
	for _, seq := range seqs {
		for range seq {
			rows = append(rows, len(rows))
		}
	}
	return rows
}

// TestPackedMatchesPaddedBitExact holds the packed forward and its
// row-restricted last block to the padded full computation: seeded
// ragged batches (lengths 1 to Ctx, a batch of one, equal lengths, a
// one-token sequence, a sequence that fills the context), 1 to 3
// layers, one shape wide enough for its matmuls to split across
// workers (CI runs this under GOMAXPROCS=1 and 4), and for each the row
// subsets nil, empty, all and scored-style — hidden states of every
// requested row and every parameter's gradient, bit for bit. The digest
// over all of them was recorded on the commit before batches were
// packed, from its own Hidden and a GatherRows of the same positions.
func TestPackedMatchesPaddedBitExact(t *testing.T) {
	const want = "17854251818dea0baed82c9839ca8b5068f90e69615feaa9283535ef785cd8ea"
	rng := rand.New(rand.NewSource(43))
	digest := sha256.New()
	for _, cfg := range []Config{
		{Vocab: 23, Ctx: 12, Dim: 16, Heads: 2, Layers: 1},
		{Vocab: 23, Ctx: 12, Dim: 16, Heads: 2, Layers: 2},
		{Vocab: 23, Ctx: 12, Dim: 16, Heads: 4, Layers: 3},
		{Vocab: 29, Ctx: 24, Dim: 48, Heads: 4, Layers: 2},
	} {
		m := NewGPT(cfg, rng)
		for _, lens := range [][]int{
			{1 + rng.Intn(cfg.Ctx), 1 + rng.Intn(cfg.Ctx), 1 + rng.Intn(cfg.Ctx), 1 + rng.Intn(cfg.Ctx), 1 + rng.Intn(cfg.Ctx)},
			{2 + rng.Intn(cfg.Ctx-1)},
			{7, 7, 7},
			{5, 1, 9, 1},
			{3, cfg.Ctx, 1, cfg.Ctx - 1, 2, 6, 11, 4},
		} {
			seqs := make([][]int, len(lens))
			for s, n := range lens {
				seqs[s] = make([]int, n)
				for i := range seqs[s] {
					seqs[s][i] = rng.Intn(cfg.Vocab)
				}
			}
			for _, rows := range [][]int{nil, {}, allRows(seqs), scoredStyleRows(rng, seqs)} {
				for _, v := range packedVsPadded(t, m, seqs, rows, rng.Intn(cfg.Vocab), rng.Int63()) {
					hashU64(digest, math.Float64bits(v))
				}
			}
		}
	}
	if got := hex.EncodeToString(digest.Sum(nil)); got != want {
		t.Errorf("hidden states and gradients: sha256 %s, want %s", got, want)
	}
}

// FuzzPackedMatchesPadded is packedVsPadded over arbitrary sequence
// lengths (one byte each, up to eight sequences of 1..Ctx tokens) and
// row masks (bit r of mask keeps packed row r; no mask = nil rows).
func FuzzPackedMatchesPadded(f *testing.F) {
	f.Add([]byte{3, 0, 11}, []byte(nil), int64(1))
	f.Add([]byte{0}, []byte{1}, int64(2))
	f.Add([]byte{5, 5, 5}, []byte{0xff, 0xff}, int64(3))
	f.Add([]byte{11, 1, 7, 0, 2}, []byte{0b10100100, 0b00010011, 0b1000}, int64(4))
	f.Add([]byte{4, 9}, []byte{0, 0}, int64(5))
	cfg := Config{Vocab: 19, Ctx: 12, Dim: 16, Heads: 2, Layers: 2}
	m := NewGPT(cfg, rand.New(rand.NewSource(44)))
	f.Fuzz(func(t *testing.T, lens, mask []byte, seed int64) {
		if len(lens) == 0 || len(lens) > 8 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		seqs := make([][]int, len(lens))
		total := 0
		for s, b := range lens {
			seqs[s] = make([]int, 1+int(b)%cfg.Ctx)
			for i := range seqs[s] {
				seqs[s][i] = rng.Intn(cfg.Vocab)
			}
			total += len(seqs[s])
		}
		var rows []int
		if len(mask) > 0 {
			rows = []int{}
			for r := 0; r < total && r/8 < len(mask); r++ {
				if mask[r/8]>>(r%8)&1 == 1 {
					rows = append(rows, r)
				}
			}
		}
		packedVsPadded(t, m, seqs, rows, rng.Intn(cfg.Vocab), seed)
	})
}

// lmLossMasked is LMLoss as it was before sequences were fed without
// their last token, kept as its oracle: on the heap, every sequence
// whole, each one's last row given target −1 so that CrossEntropy
// skips it. It runs the backward pass and returns the loss.
func lmLossMasked(m *GPT, batch [][]int) float64 {
	logits := tensor.MatMul(m.Hidden(nil, batch, nil), m.Head)
	targets := make([]int, 0, logits.R)
	for _, seq := range batch {
		if len(seq) > 0 {
			targets = append(append(targets, seq[1:]...), -1)
		}
	}
	loss := tensor.CrossEntropy(logits, targets)
	tensor.Backward(loss)
	return loss.Data[0]
}

// FuzzLMLossMatchesMasked holds LMLoss, on an arena reused from input
// to input, to lmLossMasked bit for bit: the loss and every parameter's
// gradient, over up to eight sequences of 0..Ctx tokens (one byte of
// lens each) with tokens drawn from seed.
func FuzzLMLossMatchesMasked(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0}, int64(1)) // no sequence predicts a token
	f.Add([]byte{}, int64(2))
	f.Add([]byte{3, 0, 11, 1}, int64(3))
	f.Add([]byte{12, 12, 2}, int64(4))
	f.Add([]byte{2, 5, 7, 12, 1, 9, 4, 6}, int64(5))
	cfg := Config{Vocab: 19, Ctx: 12, Dim: 16, Heads: 2, Layers: 2}
	m := NewGPT(cfg, rand.New(rand.NewSource(48)))
	params := m.Params()
	grads := func() [][]float64 {
		out := make([][]float64, len(params))
		for i, p := range params {
			out[i] = slices.Clone(p.Grad)
			p.ZeroGrad()
		}
		return out
	}
	var arena tensor.Arena
	f.Fuzz(func(t *testing.T, lens []byte, seed int64) {
		if len(lens) > 8 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		batch := make([][]int, len(lens))
		for s, b := range lens {
			batch[s] = make([]int, int(b)%(cfg.Ctx+1))
			for i := range batch[s] {
				batch[s][i] = rng.Intn(cfg.Vocab)
			}
		}
		grads()
		want := lmLossMasked(m, batch)
		wantGrads := grads()
		loss, got := m.LMLoss(&arena, batch)
		tensor.Backward(loss)
		gotGrads := grads()
		arena.Reset()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lengths %v: loss %v, masked oracle %v", lens, got, want)
		}
		for i := range params {
			for j, g := range gotGrads[i] {
				if math.Float64bits(g) != math.Float64bits(wantGrads[i][j]) {
					t.Fatalf("lengths %v: parameter %d scalar %d gradient %v, masked oracle %v", lens, i, j, g, wantGrads[i][j])
				}
			}
		}
	})
}

// TestHiddenRowsIsAGatherOfHidden: asking Hidden for some rows returns
// those rows of the call that asks for all, bit for bit.
func TestHiddenRowsIsAGatherOfHidden(t *testing.T) {
	seqs := [][]int{{1, 2, 3, 4, 5}, {6}, {7, 8, 9}, {10, 11, 12, 13, 14, 15, 16}}
	rows := []int{0, 3, 4, 5, 7, 9, 10, 14}
	for _, layers := range []int{1, 2} {
		cfg := tinyConfig()
		cfg.Layers = layers
		m := NewGPT(cfg, rand.New(rand.NewSource(45)))
		all, some := m.Hidden(nil, seqs, nil), m.Hidden(nil, seqs, rows)
		if some.R != len(rows) || all.R != 16 {
			t.Fatalf("%d layers: %d rows for %d asked, %d for all 16", layers, some.R, len(rows), all.R)
		}
		for i, r := range rows {
			for j, v := range some.Row(i) {
				if math.Float64bits(v) != math.Float64bits(all.At(r, j)) {
					t.Fatalf("%d layers: row %d col %d = %v, the full call has %v", layers, r, j, v, all.At(r, j))
				}
			}
		}
	}
}

func TestHiddenPanicsOnLongSequence(t *testing.T) {
	cfg := tinyConfig()
	m := NewGPT(cfg, rand.New(rand.NewSource(46)))
	defer func() {
		if r := recover(); r != "nn: sequence longer than model context" {
			t.Errorf("recovered %v, want the context panic", r)
		}
	}()
	m.Hidden(nil, [][]int{{1, 2}, make([]int, cfg.Ctx+1)}, nil)
	t.Fatal("no panic")
}

// TestLMLossMatchesPaddedOracle: the packed loss is the cross-entropy
// of the padded oracle's logits with padding and each sequence's last
// position masked out — also when the longest sequence fills Ctx.
func TestLMLossMatchesPaddedOracle(t *testing.T) {
	cfg := tinyConfig()
	m := NewGPT(cfg, rand.New(rand.NewSource(47)))
	for _, lens := range [][]int{{3, 9, 1, 6}, {cfg.Ctx, 2, cfg.Ctx - 1}, {4, 4}} {
		seqs := make([][]int, len(lens))
		for s, n := range lens {
			seqs[s] = make([]int, n)
			for i := range seqs[s] {
				seqs[s][i] = (3*s + 5*i) % cfg.Vocab
			}
		}
		_, got := m.LMLoss(nil, seqs)
		h, T := hiddenPaddedRef(m, seqs, 0)
		targets := make([]int, h.R)
		for i := range targets {
			targets[i] = -1
		}
		for s, seq := range seqs {
			copy(targets[s*T:], seq[1:])
		}
		want := tensor.CrossEntropy(tensor.MatMul(h, m.Head), targets).Data[0]
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("lengths %v: packed loss %v, padded oracle %v", lens, got, want)
		}
	}
}
