package nn

import (
	"math"
	"math/rand"

	"chatfuzz/internal/ml/tensor"
)

// Sampler runs the model incrementally with per-layer KV caches —
// generation is O(T²) total instead of O(T³), which keeps the fuzzing
// loop fast. It shares the model's weights, builds no tape, and after
// construction allocates nothing: the K/V caches are sized to the
// context and every per-token vector, the logits included, is scratch
// owned by the Sampler. One Sampler serves any number of generations,
// one at a time (Generate resets it).
//
// A position costs what is read from it. step is the backbone alone —
// embedding, the blocks (appending the position's K/V), the final
// layer norm — and leaves the position's state in h; lmHead and value
// are the two heads over h. A prompt position pays step only: its
// logits would be sampled by nobody. A position that is sampled from
// pays step and lmHead. The log-probability of the sampled token and
// the value are PPO's inputs, so only a caller that records them for
// a learner pays for them (see Generate).
//
// The caches are laid out for the tensor package's row kernel, so a
// head's attention is two calls of it. Keys are stored transposed,
// [D][Ctx] — a head's dh rows of Ctx positions — and its scores over
// the T cached positions are q_h × K_hᵀ, rows Ctx apart read T wide.
// Values are stored [heads][Ctx][dh], and the head's output is the
// weights × V_h. The kernel adds each sum's products in the order the
// scalar loops did — a score over ascending components, an output over
// ascending positions — but skips a zero factor (a query component, an
// attention weight that underflowed) where the loops added its product.
// That moves no bit: the product of ±0 and a finite cached value is ±0,
// a sum that starts at +0 is never −0 under round-to-nearest, and
// adding ±0 to anything else leaves it as it is.
type Sampler struct {
	m    *GPT
	k, v [][]float64 // [layer] -> keys [D][Ctx], values [heads][Ctx][dh]; positions below pos filled
	pos  int

	// Per-token scratch, overwritten by every step.
	x, h, attn, proj, mlp []float64 // [D]; h holds the final layer-norm state after step
	qkv, fc               []float64 // [3D], [4D]
	scores                []float64 // [Ctx] attention weights of one head
	logits                []float64 // [Vocab]
	sample                []float64 // [2*Vocab] sampleToken's scratch
}

// NewSampler returns an empty sampler for m.
func NewSampler(m *GPT) *Sampler {
	d, v := m.Cfg.Dim, m.Cfg.Vocab
	vec := func(n int) []float64 { return make([]float64, n) }
	s := &Sampler{
		m: m,
		k: make([][]float64, m.Cfg.Layers),
		v: make([][]float64, m.Cfg.Layers),
		x: vec(d), h: vec(d), attn: vec(d), proj: vec(d), mlp: vec(d),
		qkv: vec(3 * d), fc: vec(4 * d),
		scores: vec(m.Cfg.Ctx), logits: vec(v), sample: vec(2 * v),
	}
	for l := range s.k {
		s.k[l], s.v[l] = vec(m.Cfg.Ctx*d), vec(m.Cfg.Ctx*d)
	}
	return s
}

// Reset rewinds the sampler for a new sequence; the caches are
// overwritten as it advances.
func (s *Sampler) Reset() { s.pos = 0 }

// Pos returns the number of tokens consumed.
func (s *Sampler) Pos() int { return s.pos }

func layerNormVec(dst, x []float64, g, b *tensor.Tensor) {
	n := float64(len(x))
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= n
	variance := 0.0
	for _, v := range x {
		d := v - mean
		variance += d * d
	}
	variance /= n
	rs := 1 / math.Sqrt(variance+1e-5)
	for i, v := range x {
		dst[i] = g.Data[i]*(v-mean)*rs + b.Data[i]
	}
}

// step consumes one token through the backbone: it appends the
// position's keys and values to the caches and leaves the final
// layer-norm state in s.h for the heads. The matvecs and the attention
// are the tensor package's forward kernel at one row, which adds a
// sum's products in ascending inner index and skips zero factors of the
// vector.
func (s *Sampler) step(id int) {
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

	heads, ctx := m.Cfg.Heads, m.Cfg.Ctx
	dh := d / heads
	scale := 1 / math.Sqrt(float64(dh))
	T := s.pos + 1

	for l, blk := range m.Blocks {
		layerNormVec(h, x, blk.LN1g, blk.LN1b)
		tensor.VecMatInto(qkv, h, blk.Wqkv)
		for i := range qkv {
			qkv[i] += blk.Bqkv.Data[i]
		}
		kT, vals := s.k[l], s.v[l]
		for c, kv := range qkv[d : 2*d] {
			kT[c*ctx+s.pos] = kv
		}
		for hd := 0; hd < heads; hd++ {
			copy(vals[(hd*ctx+s.pos)*dh:], qkv[2*d+hd*dh:2*d+(hd+1)*dh])
		}

		clear(attn)
		for hd := 0; hd < heads; hd++ {
			// Scores over all cached positions: q·k of each, one product.
			scores := s.scores[:T]
			clear(scores)
			tensor.VecMatAdd(scores, qkv[hd*dh:(hd+1)*dh], kT[hd*dh*ctx:], ctx)
			for u := range scores {
				scores[u] *= scale
			}
			tensor.SoftmaxInto(scores, scores)
			tensor.VecMatAdd(attn[hd*dh:(hd+1)*dh], scores, vals[hd*ctx*dh:], dh)
		}
		tensor.VecMatInto(proj, attn, blk.Wproj)
		for i := range x {
			x[i] += proj[i] + blk.Bproj.Data[i]
		}
		layerNormVec(h, x, blk.LN2g, blk.LN2b)
		tensor.VecMatInto(fc, h, blk.Wfc)
		for i := range fc {
			fc[i] += blk.Bfc.Data[i]
		}
		tensor.GELUInto(fc, fc)
		tensor.VecMatInto(mlp, fc, blk.Wout)
		for i := range x {
			x[i] += mlp[i] + blk.Bout.Data[i]
		}
	}

	layerNormVec(h, x, m.LNfg, m.LNfb)
	s.pos++
}

// lmHead returns the logits of the position step last consumed. They
// are the Sampler's scratch: valid until the next lmHead.
func (s *Sampler) lmHead() []float64 {
	tensor.VecMatInto(s.logits, s.h, s.m.Head)
	return s.logits
}

// value returns the value head at the position step last consumed.
func (s *Sampler) value() float64 {
	value := s.m.VBias.Data[0]
	for i, hv := range s.h {
		value += hv * s.m.VHead.Data[i]
	}
	return value
}

// Next consumes one token and returns (logits, value) for the
// position just consumed: the backbone and both heads, the per-token
// counterpart of the batch forward. The logits are the Sampler's
// scratch: valid until the next call of Next, which overwrites them.
func (s *Sampler) Next(id int) (logits []float64, value float64) {
	s.step(id)
	return s.lmHead(), s.value()
}

// sampleToken draws from logits with temperature and top-k filtering,
// over caller-owned scratch of twice the vocabulary, in two passes over
// the scaled logits — the logits themselves at a temperature of 1,
// where dividing would change nothing, and otherwise a copy divided in
// the scratch. The first pass finds their maximum and the cut: the k-th
// largest, kept with the ones above it in the running top k. The second
// exponentiates and accumulates, in index order, only the entries at or
// above the cut, and lists them as survivors, so the draw walks the
// survivors alone. The others would enter a softmax over the whole
// vocabulary as exp(-Inf) = 0: they add nothing to the normaliser or to
// the running sum the draw is compared with, so the draw lands on the
// same index as over the full vector. The quotients can sum to a little
// under 1; a draw between that sum and 1 takes the last entry that was
// accumulated, never one the cut removed.
func sampleToken(rng *rand.Rand, logits []float64, temperature float64, topK int, scratch []float64) int {
	if temperature <= 0 {
		return argmax(logits)
	}
	n := len(logits)
	vals := logits
	if temperature != 1 {
		vals = scratch[:n]
		for i, v := range logits {
			vals[i] = v / temperature
		}
	}
	k := 0 // top-k off: every entry survives
	if topK > 0 && topK < n {
		k = topK
	}
	// The top k live in the second half of the scratch. floor is their
	// smallest once there are k of them; until then NaN, which admits
	// every value, as a top that is not full must.
	top, floor := scratch[n:n], math.NaN()
	maxV := math.Inf(-1)
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
		if k == 0 || v <= floor {
			continue
		}
		if top = insertTop(top, k, v); len(top) == k {
			floor = top[k-1]
		}
	}
	cut := math.Inf(-1)
	if k > 0 {
		cut = floor
	}
	// The survivors' exponentials go to the first half of the scratch,
	// their indices to the second, over the top k, which has been read.
	// The j-th survivor is written at j, at or before the entry it came
	// from, so a divided copy in the first half is read before it is
	// overwritten.
	es, idx := scratch[:0], scratch[n:n]
	var z float64
	for i, v := range vals {
		if v < cut {
			continue
		}
		e := math.Exp(v - maxV)
		es, idx = append(es, e), append(idx, float64(i))
		z += e
	}
	r := rng.Float64()
	acc := 0.0
	last := 0 // the survivor a draw takes that rounding left at or above the whole sum
	for j, e := range es {
		if e == 0 {
			continue
		}
		acc += e / z
		if r < acc {
			return int(idx[j])
		}
		last = int(idx[j])
	}
	return last
}

// insertTop puts x into top, the largest values seen so far in
// descending order, dropping the smallest when it already holds k:
// cheap for the small k of top-k sampling, where the caller rejects
// nearly every value with one comparison against that smallest. Once
// every value has been offered, top[k-1] is the k-th largest, which
// does not depend on the order the values came in, so cutting at it
// filters exactly what cutting at position k of a full sort does.
func insertTop(top []float64, k int, x float64) []float64 {
	if len(top) == k {
		top = top[:k-1]
	}
	i := len(top)
	top = append(top, x)
	for ; i > 0 && top[i-1] < x; i-- {
		top[i] = top[i-1]
	}
	top[i] = x
	return top
}

func argmax(v []float64) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// GenerateResult is one sampled continuation with the statistics PPO
// needs from rollout time.
type GenerateResult struct {
	Tokens   []int     // full sequence: prompt + generated
	PromptN  int       // number of prompt tokens
	LogProbs []float64 // log π_old(token) for each generated token
	Values   []float64 // value head at each generated position
}

// Generate samples a continuation of prompt until maxNew tokens, the
// eos token, or the context limit. Temperature and topK control the
// distribution. An empty prompt gives nothing to condition on and
// returns with no generated token, which PPO treats as nothing to
// learn from; a prompt longer than the context panics with the
// sampler's "past model context".
//
// It resets the sampler, so one Sampler serves a generator's every
// generation and nothing but the result is allocated. record says
// whether a learner will read every generated token's log-probability
// and value for PPO (LogProbs and Values); without it they stay nil,
// the value head never runs and no log-softmax is taken. The tokens and
// the draws taken from rng are the same either way.
//
// The prompt runs through the backbone only, the LM head runs only at
// a position about to be sampled from, and a sampled token is fed back
// only when its successor will be sampled too — the last token of the
// budget or of the context is appended unfed, as eos always was.
func (s *Sampler) Generate(rng *rand.Rand, prompt []int, maxNew int, temperature float64, topK, eos int, record bool) GenerateResult {
	s.Reset()
	for _, id := range prompt {
		s.step(id)
	}
	budget := 0 // positions left to sample from; none after an empty prompt
	if len(prompt) > 0 {
		budget = max(0, min(maxNew, s.m.Cfg.Ctx-s.pos))
	}
	res := GenerateResult{PromptN: len(prompt), Tokens: make([]int, len(prompt), len(prompt)+budget)}
	copy(res.Tokens, prompt)
	if record {
		res.LogProbs = make([]float64, 0, budget)
		res.Values = make([]float64, 0, budget)
	}
	for n := 0; n < budget; n++ {
		if n > 0 {
			s.step(res.Tokens[len(res.Tokens)-1])
		}
		logits := s.lmHead()
		id := sampleToken(rng, logits, temperature, topK, s.sample)
		res.Tokens = append(res.Tokens, id)
		if record {
			// Log-probabilities are always recorded under the untempered
			// policy: PPO's ratio compares the same measure at rollout and
			// optimisation time (temperature only shapes exploration).
			res.LogProbs = append(res.LogProbs, tensor.LogSoftmaxAt(logits, id))
			res.Values = append(res.Values, s.value())
		}
		if id == eos {
			break
		}
	}
	return res
}
