package core

import (
	"math/rand"

	"chatfuzz/internal/corpus"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/ml/tok"
	"chatfuzz/internal/prog"
)

func validWord(w uint32) bool { return isa.Decode(w).Valid() }

// Generator produces batches of test programs for the fuzzing loop and
// receives per-input coverage scores as feedback. Feedback always
// refers to the most recent GenerateBatch call, in order.
type Generator interface {
	GenerateBatch(n int) []prog.Program
	Feedback(scores []cov.Scores)
}

// RolloutSink consumes the scored PPO rollouts a fuzzing round
// produced. It is the pipeline hook that exposes per-program
// generation results to external learners: the fleet-learning
// subsystem implements it with a per-shard model replica's trainer, so
// the same simulation that fuzzes the DUT also rewards the replica —
// without the generator knowing anything about fleets or averaging.
type RolloutSink interface {
	StepRollouts(rolls []*ppo.Rollout) ppo.Stats
}

// LLMGenerator is ChatFuzz's LLM-based Input Generator in the fuzzing
// loop: it samples test vectors from the trained model and — when Sink
// is set — hands the Coverage Calculator's scores to a learner that
// keeps improving the model, exactly as Fig. 1a's feedback arrow
// describes. Only then does generation record what PPO needs (each
// sampled token's log-probability and value, one rollout per
// generation): a frozen generator records nothing and samples the same
// programs from the same RNG draws.
type LLMGenerator struct {
	// Model is sampled through a sampler bound to it at construction;
	// a sink's learner updates its weights in place.
	Model  *nn.GPT
	Tok    *tok.Tokenizer
	Corpus *corpus.Corpus

	// Sink, when non-nil, receives the scored rollouts: the generator
	// samples from Model (a replica) and the sink decides how (and on
	// which trainer) to learn from them.
	Sink RolloutSink
	// Weights shape the coverage reward handed to Sink.
	Weights RewardWeights
	// BodyInstrs bounds generation length (instructions).
	BodyInstrs int
	// Temperature/TopK shape exploration.
	Temperature float64
	TopK        int

	rng       *rand.Rand
	sampler   *nn.Sampler // reset by every generation
	lastRolls []*ppo.Rollout
	rollTest  []int // test index of each rollout chunk
	binsTotal int
}

// NewLLMGenerator wires a trained pipeline into a frozen fuzzing
// generator: it samples the pipeline's model and never updates it.
func NewLLMGenerator(p *Pipeline, binsTotal int, seed int64) *LLMGenerator {
	return NewReplicaGenerator(p, p.Model, nil, binsTotal, seed)
}

// NewReplicaGenerator wires a model replica into the fuzzing loop: the
// generator samples from model (not the pipeline's shared weights) and
// forwards every round's scored rollouts to sink. This is the per-shard
// generation side of fleet learning — tokenizer, corpus, reward shaping
// and body budget still come from the trained pipeline, but the weights
// being sampled (and updated, via the sink) are the replica's own.
func NewReplicaGenerator(p *Pipeline, model *nn.GPT, sink RolloutSink, binsTotal int, seed int64) *LLMGenerator {
	return &LLMGenerator{
		Model:       model,
		Tok:         p.Tok,
		Corpus:      p.Corpus,
		Sink:        sink,
		Weights:     p.Cfg.Weights,
		BodyInstrs:  p.Cfg.BodyInstrs,
		Temperature: 1.0,
		TopK:        16, // cut the low-probability tail: fewer illegal parcel pairings
		rng:         rand.New(rand.NewSource(seed)),
		sampler:     nn.NewSampler(model),
		binsTotal:   binsTotal,
	}
}

// Reseed restarts the generator's random stream at seed and forgets the
// last batch's rollouts: afterwards it samples what a generator freshly
// built with that seed around the same model would, and it allocates
// nothing — the sampler and the rollout buffers are kept.
func (g *LLMGenerator) Reseed(seed int64) {
	g.rng.Seed(seed)
	g.lastRolls = g.lastRolls[:0]
	g.rollTest = g.rollTest[:0]
}

// GenerateBatch implements Generator. Each test vector is assembled
// from one or more model generations: a corpus prompt is completed by
// the model until EOS (one function-sized chunk), and chunks are
// concatenated until the per-test instruction budget is reached — so
// every generator in the evaluation spends the same number of
// instructions per test, as the paper's comparison requires.
func (g *LLMGenerator) GenerateBatch(n int) []prog.Program {
	progs := make([]prog.Program, n)
	record := g.Sink != nil
	g.lastRolls = g.lastRolls[:0]
	g.rollTest = g.rollTest[:0]
	for i := 0; i < n; i++ {
		var body []uint32
		for len(body) < g.BodyInstrs {
			fn := g.Corpus.Functions[g.rng.Intn(len(g.Corpus.Functions))]
			promptWords := corpus.Window(g.rng, fn)
			promptToks := append([]int{tok.BOS}, g.Tok.EncodeBody(promptWords)...)
			budget := 2 * (g.BodyInstrs - len(body))
			res := g.sampler.Generate(g.rng, promptToks, budget, g.Temperature, g.TopK, tok.EOS, record)
			words := g.Tok.Decode(res.Tokens)
			if len(words) == 0 {
				break
			}
			if len(words) > g.BodyInstrs-len(body) {
				words = words[:g.BodyInstrs-len(body)]
			}
			body = append(body, words...)
			if len(res.LogProbs) > 0 {
				g.lastRolls = append(g.lastRolls, ppo.FromGeneration(res, 0))
				g.rollTest = append(g.rollTest, i)
			}
		}
		progs[i] = prog.Program{Body: body}
	}
	return progs
}

// Feedback implements Generator: with a sink, scores become PPO
// rewards; every generation chunk of a test inherits the test's
// coverage reward. A frozen generator ignores them.
func (g *LLMGenerator) Feedback(scores []cov.Scores) {
	if g.Sink == nil {
		return
	}
	rolls := make([]*ppo.Rollout, 0, len(g.lastRolls))
	for k, r := range g.lastRolls {
		ti := g.rollTest[k]
		if ti >= len(scores) {
			continue
		}
		r.Score = CoverageReward(scores[ti], g.binsTotal, g.Weights)
		rolls = append(rolls, r)
	}
	g.Sink.StepRollouts(rolls)
}
