package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
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
	logits, T := m.Logits([][]int{{1, 2, 3}, {4, 5}}, 0)
	if T != 3 {
		t.Errorf("padded length = %d, want 3", T)
	}
	if logits.R != 6 || logits.C != 17 {
		t.Errorf("logits shape %dx%d, want 6x17", logits.R, logits.C)
	}
	h, _ := m.Hidden([][]int{{1, 2, 3}}, 0)
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
		loss, val := m.LMLoss(batch, 0)
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
	res := m.Generate(rng, []int{4, 5, 6}, 5, 0, 0, -1)
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

	logits, T := m.Logits([][]int{seq}, 0)
	if T != len(seq) {
		t.Fatal("unexpected padding")
	}

	s := NewSampler(m)
	for pos, id := range seq {
		row, _ := s.Next(id)
		for j := range row {
			if math.Abs(row[j]-logits.At(pos, j)) > 1e-9 {
				t.Fatalf("pos %d logit %d: incremental %.12f vs batch %.12f",
					pos, j, row[j], logits.At(pos, j))
			}
		}
	}
}

func TestSamplerValueMatchesBatchForward(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NewGPT(tinyConfig(), rng)
	seq := []int{5, 11, 2}
	h, _ := m.Hidden([][]int{seq}, 0)
	values := m.Values(h)

	s := NewSampler(m)
	for pos, id := range seq {
		_, v := s.Next(id)
		if math.Abs(v-values.At(pos, 0)) > 1e-9 {
			t.Fatalf("pos %d value: incremental %.12f vs batch %.12f", pos, v, values.At(pos, 0))
		}
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
	a, _ := m.Logits([][]int{{1, 2}}, 0)
	b, _ := c.Logits([][]int{{1, 2}}, 0)
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
	res := m.Generate(rng, []int{1}, 100, 1.0, 0, -1)
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
	for i := 0; i < 10; i++ {
		if id := SampleToken(rng, logits, 0, 0); id != 1 {
			t.Fatalf("argmax sampling returned %d", id)
		}
	}
}

func TestSampleTokenTopKRestriction(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := []float64{10, 9, -50, -50, -50}
	for i := 0; i < 100; i++ {
		id := SampleToken(rng, logits, 1.0, 2)
		if id != 0 && id != 1 {
			t.Fatalf("top-2 sampling escaped the top set: %d", id)
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
		loss, _ := m.LMLoss(batch, 0)
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
		res := m.Generate(rng, []int{1, 2 + i}, 20, 0.7+0.2*float64(i), topK, 3)
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
