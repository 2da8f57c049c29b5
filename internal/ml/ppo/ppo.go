// Package ppo implements Proximal Policy Optimization for the
// language model, in the style of TRL's PPOTrainer, which the paper
// uses for training steps 2 and 3: clipped surrogate objective, a
// shared-backbone value head, GAE advantages, a per-token KL penalty
// against a frozen reference model, and KL/reward/loss monitoring
// ("we monitored the PPO algorithm's loss, the Kullback-Leibler
// divergence between optimization policies, and the mean rewards").
//
// A step runs the reference and the policy over the rollouts' token
// sequences as a packed batch (nn.GPT.Hidden: no padding) and asks each
// for the rows that predict a generated token, the only ones it reads.
// A rollout's last token predicts nothing and is left out of the batch.
// Every tape a step builds lives in the trainer's arena, which the
// step resets once the reference pass's rewards are computed and after
// each epoch, so a step allocates little beyond its first.
//
//chatfuzz:deterministic package
package ppo

import (
	"fmt"
	"math"
	"math/rand"

	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/tensor"
)

// Config holds the PPO hyper-parameters.
type Config struct {
	LR           float64 // Adam learning rate
	ClipEps      float64 // PPO clip range ε
	KLCoef       float64 // per-token KL penalty coefficient β
	VFCoef       float64 // value-loss weight
	Gamma        float64 // discount
	Lambda       float64 // GAE λ
	Epochs       int     // optimisation epochs per rollout batch
	MaxNewTokens int     // generation budget per prompt
	Temperature  float64 // sampling temperature
	TopK         int     // top-k sampling filter (0 = off)
	GradClip     float64 // global gradient-norm clip
	EOS          int     // end-of-sequence token id
}

// DefaultConfig returns TRL-like defaults.
func DefaultConfig(eos int) Config {
	return Config{
		LR: 3e-4, ClipEps: 0.2, KLCoef: 0.1, VFCoef: 0.5,
		Gamma: 1.0, Lambda: 0.95, Epochs: 2, MaxNewTokens: 48,
		Temperature: 1.0, TopK: 0, GradClip: 1.0, EOS: eos,
	}
}

// RewardFunc scores one sampled sequence; tokens is prompt+generation
// and promptN the prompt length. Higher is better.
type RewardFunc func(tokens []int, promptN int) float64

// Stats reports one PPO step's monitored quantities.
type Stats struct {
	MeanReward float64 // mean environment (task) reward
	MeanKL     float64 // mean per-token KL(π_old ‖ π_ref) estimate
	PolicyLoss float64
	ValueLoss  float64
	ClipFrac   float64 // fraction of tokens hitting the clip range
	MeanLen    float64 // mean generated length
}

// Trainer optimises a policy model against a reward function.
type Trainer struct {
	Policy *nn.GPT
	Ref    *nn.GPT // frozen reference for the KL penalty
	Opt    *nn.Adam
	Cfg    Config

	rng     *rand.Rand
	arena   tensor.Arena // the tapes of StepRollouts
	sampler *nn.Sampler  // Step's generations from Policy, made on first use
}

// NewTrainer clones the policy as the frozen reference and sets up the
// optimizer.
func NewTrainer(policy *nn.GPT, cfg Config, rng *rand.Rand) *Trainer {
	return NewTrainerWithRef(policy, policy.Clone().Freeze(), cfg, rng)
}

// NewTrainerWithRef builds a trainer over an explicit policy/reference
// pair instead of cloning the policy. Fleet learning uses it for its
// barrier workers: the policy is the worker's training model and ref,
// nil at construction, is set before each StepRollouts to the replica
// being trained's copy of the offline-trained base, frozen
// (nn.GPT.Freeze) so that the reference pass builds no tape; every
// replica's KL penalty stays anchored to the same distribution no
// matter how the replicas drift between averaging barriers. rng may be
// nil when the caller only ever feeds externally collected rollouts
// through StepRollouts (Step is the only sampler of the rng).
func NewTrainerWithRef(policy, ref *nn.GPT, cfg Config, rng *rand.Rand) *Trainer {
	return &Trainer{
		Policy: policy,
		Ref:    ref,
		Opt:    nn.NewAdam(policy.Params(), cfg.LR),
		Cfg:    cfg,
		rng:    rng,
	}
}

// Rollout is one sampled trajectory plus its per-token quantities.
// The fuzzing loop builds these from its own generations (so the same
// simulation both fuzzes the DUT and rewards the model); Step builds
// them internally from prompts.
type Rollout struct {
	Tokens  []int     // prompt + generation
	PromptN int       // prompt length
	LogpOld []float64 // per generated token, from rollout time
	Values  []float64 // per generated token, from rollout time
	Score   float64   // sequence-level task reward

	rewards []float64 // per generated token (KL penalty + terminal score)
	adv     []float64
	returns []float64
}

// FromGeneration wraps a sampler result into a scored rollout.
func FromGeneration(res nn.GenerateResult, score float64) *Rollout {
	return &Rollout{
		Tokens:  res.Tokens,
		PromptN: res.PromptN,
		LogpOld: res.LogProbs,
		Values:  res.Values,
		Score:   score,
	}
}

// Step runs one PPO iteration: sample a continuation for every
// prompt, score them, compute GAE advantages, and optimise the
// clipped surrogate for Cfg.Epochs epochs.
func (t *Trainer) Step(prompts [][]int, reward RewardFunc) Stats {
	cfg := t.Cfg
	if t.sampler == nil {
		t.sampler = nn.NewSampler(t.Policy)
	}
	rolls := make([]*Rollout, 0, len(prompts))
	for _, p := range prompts {
		res := t.sampler.Generate(t.rng, p, cfg.MaxNewTokens, cfg.Temperature, cfg.TopK, cfg.EOS, true)
		if len(res.Tokens) == res.PromptN {
			continue // context exhausted; nothing generated
		}
		rolls = append(rolls, FromGeneration(res, reward(res.Tokens, res.PromptN)))
	}
	return t.StepRollouts(rolls)
}

// batchSeqs returns the token sequence each rollout contributes to
// the packed batch: its tokens up to the one before its last generated
// token, the last row that predicts one. The rows after it are read by
// no query (attention is causal), so their gradient is an exact zero
// and leaving them out moves no bit (see package tensor).
func batchSeqs(rolls []*Rollout) [][]int {
	seqs := make([][]int, len(rolls))
	for i, r := range rolls {
		seqs[i] = r.Tokens[:r.PromptN+len(r.LogpOld)-1]
	}
	return seqs
}

// scoredRows returns, in rollout then token order, the rows of the
// packed batch of seqs (nn.GPT.Hidden) that predict a generated token:
// with rollout i starting at row off, row off+pos-1 predicts its
// Tokens[pos]. PPO reads these rows only, so the backbone's last
// block, the heads, the softmax and the loss run on them alone.
func scoredRows(rolls []*Rollout, seqs [][]int) []int {
	var rows []int
	off := 0
	for i, r := range rolls {
		for g := range r.LogpOld {
			rows = append(rows, off+r.PromptN+g-1)
		}
		off += len(seqs[i])
	}
	return rows
}

// StepRollouts runs the PPO update on externally collected rollouts.
// Rollouts with no generated token (a context-exhausted generation)
// carry nothing to learn from and are dropped. Any other must have a
// prompt, its generated tokens inside Tokens and a value per generated
// token — what Generate returns; a hand-filled Rollout that does not is
// a caller's bug and panics here rather than train on a neighbour's row.
func (t *Trainer) StepRollouts(rolls []*Rollout) Stats {
	cfg := t.Cfg
	var stats Stats
	kept := make([]*Rollout, 0, len(rolls))
	for i, r := range rolls {
		gen := len(r.LogpOld)
		if gen == 0 {
			continue
		}
		if r.PromptN < 1 || r.PromptN+gen > len(r.Tokens) || len(r.Values) != gen {
			panic(fmt.Sprintf("ppo: rollout %d is malformed: prompt of %d and %d generated tokens in %d tokens, %d values",
				i, r.PromptN, gen, len(r.Tokens), len(r.Values)))
		}
		kept = append(kept, r)
	}
	if rolls = kept; len(rolls) == 0 {
		return stats
	}

	// --- Reference log-probs and per-token rewards ---
	seqs := batchSeqs(rolls)
	rows := scoredRows(rolls, seqs)
	refLogits := tensor.MatMul(t.Ref.Hidden(&t.arena, seqs, rows), t.Ref.Head)
	var klSum float64
	var klCount int
	for _, r := range rolls {
		gen := len(r.LogpOld)
		r.rewards = make([]float64, gen)
		for g := 0; g < gen; g++ {
			refLp := tensor.LogSoftmaxAt(refLogits.Row(klCount), r.Tokens[r.PromptN+g])
			kl := r.LogpOld[g] - refLp
			klSum += kl
			klCount++
			r.rewards[g] = -cfg.KLCoef * kl
		}
		r.rewards[gen-1] += r.Score
		stats.MeanReward += r.Score
		stats.MeanLen += float64(gen)
	}
	stats.MeanReward /= float64(len(rolls))
	stats.MeanLen /= float64(len(rolls))
	stats.MeanKL = klSum / float64(klCount)
	t.arena.Reset()

	// --- GAE ---
	var advMean, advVar float64
	var advN int
	for _, r := range rolls {
		gen := len(r.rewards)
		r.adv = make([]float64, gen)
		r.returns = make([]float64, gen)
		next := 0.0 // V(s_{T}) = 0 at episode end
		nextAdv := 0.0
		for g := gen - 1; g >= 0; g-- {
			delta := r.rewards[g] + cfg.Gamma*next - r.Values[g]
			nextAdv = delta + cfg.Gamma*cfg.Lambda*nextAdv
			r.adv[g] = nextAdv
			r.returns[g] = r.adv[g] + r.Values[g]
			next = r.Values[g]
		}
		for _, a := range r.adv {
			advMean += a
			advN++
		}
	}
	advMean /= float64(advN)
	for _, r := range rolls {
		for _, a := range r.adv {
			d := a - advMean
			advVar += d * d
		}
	}
	advStd := math.Sqrt(advVar/float64(advN)) + 1e-8
	for _, r := range rolls {
		for g := range r.adv {
			r.adv[g] = (r.adv[g] - advMean) / advStd
		}
	}

	// --- Optimisation phase ---
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		pLoss, vLoss, clipFrac := t.optimize(rolls, seqs, rows)
		if epoch == cfg.Epochs-1 {
			stats.PolicyLoss, stats.ValueLoss, stats.ClipFrac = pLoss, vLoss, clipFrac
		}
		t.arena.Reset()
	}
	return stats
}

// optimize runs one epoch of clipped-surrogate optimisation over the
// rollouts (seqs their token sequences, rows their scoredRows) and
// returns (policyLoss, valueLoss, clipFraction).
func (t *Trainer) optimize(rolls []*Rollout, seqs [][]int, rows []int) (float64, float64, float64) {
	cfg := t.Cfg
	// Both heads read the same scored rows, so backward sums the value
	// head's and the LM head's gradient into one row of h before that
	// row reaches the backbone.
	h := t.Policy.Hidden(&t.arena, seqs, rows)
	logits := tensor.MatMul(h, t.Policy.Head)
	values := t.Policy.Values(h)
	count := h.R

	// Per scored row: target id, old logp, advantage, return.
	ids := make([]int, 0, count)
	logpOld := tensor.New(count, 1)
	adv := tensor.New(count, 1)
	ret := tensor.New(count, 1)
	for _, r := range rolls {
		n := len(ids)
		ids = append(ids, r.Tokens[r.PromptN:r.PromptN+len(r.LogpOld)]...)
		copy(logpOld.Data[n:], r.LogpOld)
		copy(adv.Data[n:], r.adv)
		copy(ret.Data[n:], r.returns)
	}

	logpNew := tensor.GatherLogSoftmax(logits, ids)
	ratio := tensor.Exp(tensor.Sub(logpNew, logpOld))
	s1 := tensor.Mul(ratio, adv)
	s2 := tensor.Mul(tensor.Clamp(ratio, 1-cfg.ClipEps, 1+cfg.ClipEps), adv)
	policyLoss := tensor.Scale(tensor.Sum(tensor.Min(s1, s2)), -1/float64(count))

	valueLoss := tensor.Scale(tensor.Sum(tensor.Square(tensor.Sub(values, ret))), 1/float64(count))

	loss := tensor.Add(policyLoss, tensor.Scale(valueLoss, cfg.VFCoef))

	t.Opt.ZeroGrad()
	tensor.Backward(loss)
	if cfg.GradClip > 0 {
		t.Opt.ClipGradNorm(cfg.GradClip)
	}
	t.Opt.Step()

	clipped := 0
	for _, r := range ratio.Data {
		if math.Abs(r-1) > cfg.ClipEps {
			clipped++
		}
	}
	return policyLoss.Data[0], valueLoss.Data[0], float64(clipped) / float64(count)
}
