// Package core implements ChatFuzz itself: the three-step training
// pipeline (unsupervised pre-training, PPO language cleanup against
// the disassembler, PPO coverage optimisation against the DUT), the
// LLM-based input generator, and the coverage-guided fuzzing loop with
// differential mismatch detection — the paper's primary contribution.
//
//chatfuzz:deterministic package
package core

import (
	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/ml/tok"
)

// Eq1Reward is the paper's Eq. 1 — f(GenText_i) = N_i − 5·Invalid_i —
// computed by decoding the generated tokens into instruction words and
// running them through the deterministic disassembler. scale maps the
// raw score into a PPO-friendly range.
func Eq1Reward(t *tok.Tokenizer, scale float64) ppo.RewardFunc {
	return func(tokens []int, promptN int) float64 {
		words := t.Decode(tokens[promptN:])
		n := len(words)
		invalid := isa.CountInvalid(words)
		return scale * float64(n-5*invalid)
	}
}

// RewardWeights parameterises the step-3 coverage reward (paper
// §III-B3: bonus for coverage improvement, negative reward otherwise,
// plus the stand-alone coverage term). The ablation experiment A2
// varies these.
type RewardWeights struct {
	// IncrementalScale multiplies the fraction of newly covered bins.
	IncrementalScale float64
	// ImproveBonus is added when the input covers anything new.
	ImproveBonus float64
	// NoImprovePenalty is added (negative) when it does not.
	NoImprovePenalty float64
	// StandaloneScale multiplies the input's own coverage fraction.
	StandaloneScale float64
}

// DefaultRewardWeights mirrors the paper's description.
func DefaultRewardWeights() RewardWeights {
	return RewardWeights{
		IncrementalScale: 20,
		ImproveBonus:     1,
		NoImprovePenalty: -0.5,
		StandaloneScale:  1,
	}
}

// IncrementalOnlyWeights is the A2 ablation variant: reward only
// incremental coverage, with no stand-alone shaping.
func IncrementalOnlyWeights() RewardWeights {
	return RewardWeights{IncrementalScale: 20, ImproveBonus: 1, NoImprovePenalty: -0.5}
}

// CoverageReward maps a Coverage Calculator score onto a scalar PPO
// reward.
func CoverageReward(sc cov.Scores, totalBins int, w RewardWeights) float64 {
	if totalBins == 0 {
		return 0
	}
	r := w.StandaloneScale * float64(sc.Standalone) / float64(totalBins)
	if sc.Incremental > 0 {
		r += w.ImproveBonus + w.IncrementalScale*float64(sc.Incremental)/float64(totalBins)
	} else {
		r += w.NoImprovePenalty
	}
	return r
}
