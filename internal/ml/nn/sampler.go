package nn

import (
	"math"
	"math/rand"

	"chatfuzz/internal/ml/tensor"
)

// Sampler runs the model incrementally with per-layer KV caches —
// generation is O(T²) total instead of O(T³), which keeps the fuzzing
// loop fast. It shares the model's weights, builds no tape, and after
// construction allocates only to grow the KV caches: every per-token
// vector, the logits included, is scratch owned by the Sampler.
type Sampler struct {
	m   *GPT
	k   [][]float64 // [layer] -> appended rows of D keys
	v   [][]float64
	pos int

	// Per-token scratch, overwritten by every Next.
	x, h, attn, proj, mlp []float64 // [D]
	qkv, fc               []float64 // [3D], [4D]
	scores                []float64 // [Ctx] attention weights of one head
	logits                []float64 // [Vocab]
	sample                []float64 // [2*Vocab] SampleToken's scratch
}

// NewSampler returns an empty sampler for m.
func NewSampler(m *GPT) *Sampler {
	d, v := m.Cfg.Dim, m.Cfg.Vocab
	vec := func(n int) []float64 { return make([]float64, n) }
	return &Sampler{
		m: m,
		k: make([][]float64, m.Cfg.Layers),
		v: make([][]float64, m.Cfg.Layers),
		x: vec(d), h: vec(d), attn: vec(d), proj: vec(d), mlp: vec(d),
		qkv: vec(3 * d), fc: vec(4 * d),
		scores: vec(m.Cfg.Ctx), logits: vec(v), sample: vec(2 * v),
	}
}

// Reset clears the cache for a new sequence.
func (s *Sampler) Reset() {
	for l := range s.k {
		s.k[l] = s.k[l][:0]
		s.v[l] = s.v[l][:0]
	}
	s.pos = 0
}

// Pos returns the number of tokens consumed.
func (s *Sampler) Pos() int { return s.pos }

func vecMatInto(dst, x []float64, w *tensor.Tensor) {
	out := w.C
	for j := range dst {
		dst[j] = 0
	}
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := w.Data[i*out : (i+1)*out]
		for j, wv := range row {
			dst[j] += xv * wv
		}
	}
}

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

// Next consumes one token and returns (logits, value) for the
// position just consumed. The logits are the Sampler's scratch: valid
// until the next call of Next, which overwrites them.
func (s *Sampler) Next(id int) (logits []float64, value float64) {
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

	for l, blk := range m.Blocks {
		layerNormVec(h, x, blk.LN1g, blk.LN1b)
		vecMatInto(qkv, h, blk.Wqkv)
		for i := range qkv {
			qkv[i] += blk.Bqkv.Data[i]
		}
		q := qkv[:d]
		s.k[l] = append(s.k[l], qkv[d:2*d]...)
		s.v[l] = append(s.v[l], qkv[2*d:]...)
		T := s.pos + 1

		for i := range attn {
			attn[i] = 0
		}
		for hd := 0; hd < heads; hd++ {
			qh := q[hd*dh : (hd+1)*dh]
			// Scores over all cached positions.
			maxScore := math.Inf(-1)
			scores := s.scores[:T]
			for u := 0; u < T; u++ {
				kr := s.k[l][u*d+hd*dh : u*d+hd*dh+dh]
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
				vr := s.v[l][u*d+hd*dh : u*d+hd*dh+dh]
				for j := 0; j < dh; j++ {
					attn[hd*dh+j] += p * vr[j]
				}
			}
		}
		vecMatInto(proj, attn, blk.Wproj)
		for i := range x {
			x[i] += proj[i] + blk.Bproj.Data[i]
		}
		layerNormVec(h, x, blk.LN2g, blk.LN2b)
		vecMatInto(fc, h, blk.Wfc)
		for i := range fc {
			fc[i] = tensor.GELUScalar(fc[i] + blk.Bfc.Data[i])
		}
		vecMatInto(mlp, fc, blk.Wout)
		for i := range x {
			x[i] += mlp[i] + blk.Bout.Data[i]
		}
	}

	layerNormVec(h, x, m.LNfg, m.LNfb)
	logits = s.logits
	vecMatInto(logits, h, m.Head)
	value = m.VBias.Data[0]
	for i, hv := range h {
		value += hv * m.VHead.Data[i]
	}
	s.pos++
	return logits, value
}

// SampleToken draws from logits with temperature and top-k filtering.
func SampleToken(rng *rand.Rand, logits []float64, temperature float64, topK int) int {
	return sampleToken(rng, logits, temperature, topK, make([]float64, 2*len(logits)))
}

// sampleToken is SampleToken over caller-owned scratch of twice the
// vocabulary: the scaled logits, softmaxed in place, and the running
// top k that finds the cut.
func sampleToken(rng *rand.Rand, logits []float64, temperature float64, topK int, scratch []float64) int {
	if temperature <= 0 {
		return argmax(logits)
	}
	probs := scratch[:len(logits)]
	for i, v := range logits {
		probs[i] = v / temperature
	}
	if topK > 0 && topK < len(probs) {
		cut := kthLargest(probs, topK, scratch[len(logits):][:0])
		for i := range probs {
			if probs[i] < cut {
				probs[i] = math.Inf(-1)
			}
		}
	}
	tensor.SoftmaxInto(probs, probs)
	r := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(probs) - 1
}

// kthLargest returns the k-th largest value of v (1 <= k <= len(v)),
// keeping the k largest seen so far in descending order in top's
// storage: cheap for the small k of top-k sampling, where nearly every
// value is rejected by one comparison. The value does not depend on
// the order of v, so cutting at it filters exactly what cutting at
// position k of a full sort does.
func kthLargest(v []float64, k int, top []float64) float64 {
	for _, x := range v {
		if len(top) == k {
			if x <= top[k-1] {
				continue
			}
			top = top[:k-1]
		}
		i := len(top)
		top = append(top, x)
		for ; i > 0 && top[i-1] < x; i-- {
			top[i] = top[i-1]
		}
		top[i] = x
	}
	return top[k-1]
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
// distribution.
func (m *GPT) Generate(rng *rand.Rand, prompt []int, maxNew int, temperature float64, topK, eos int) GenerateResult {
	s := NewSampler(m)
	res := GenerateResult{PromptN: len(prompt)}
	res.Tokens = append(res.Tokens, prompt...)

	var logits []float64
	var value float64
	for _, id := range prompt {
		logits, value = s.Next(id)
	}
	for n := 0; n < maxNew && s.Pos() < m.Cfg.Ctx; n++ {
		id := sampleToken(rng, logits, temperature, topK, s.sample)
		// Log-probabilities are always recorded under the untempered
		// policy: PPO's ratio compares the same measure at rollout and
		// optimisation time (temperature only shapes exploration).
		lp := tensor.LogSoftmaxAt(logits, id)
		res.Tokens = append(res.Tokens, id)
		res.LogProbs = append(res.LogProbs, lp)
		res.Values = append(res.Values, value)
		if id == eos {
			break
		}
		logits, value = s.Next(id)
	}
	return res
}
