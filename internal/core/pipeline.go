package core

import (
	"fmt"
	"io"
	"math/rand"

	"chatfuzz/internal/corpus"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/ml/tensor"
	"chatfuzz/internal/ml/tok"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// PipelineConfig parameterises the three-step training pipeline. The
// defaults are laptop-scale; Scale multiplies the step counts for
// paper-scale runs.
type PipelineConfig struct {
	Seed   int64
	Corpus corpus.Config
	// Model sizing; Vocab is always overwritten from the tokenizer.
	Model    nn.Config
	MaxVocab int

	// Step 1: unsupervised next-token training.
	PretrainSteps int
	PretrainBatch int
	PretrainLR    float64

	// Step 2: PPO language cleanup (reward Eq. 1). The paper trains 30
	// epochs over a 51.2 K-sample subset; steps scale that down.
	CleanupSteps int
	CleanupBatch int
	Eq1Scale     float64

	// Step 3: PPO coverage optimisation (≤15 epochs in the paper).
	CoverageSteps int
	CoverageBatch int
	Weights       RewardWeights

	// BodyInstrs bounds generated test-vector length in instructions
	// (two parcel tokens each).
	BodyInstrs int

	// KLCoef for both PPO stages.
	KLCoef float64
	// PPOLr is the PPO learning rate.
	PPOLr float64

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultPipelineConfig returns the scaled-down default configuration,
// sized for a single-core machine. cmd/train-lm trains it with its step
// counts and seed overridable; a model file holds no tokenizer, so its
// loader must build the same corpus.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Seed:          1,
		Corpus:        corpus.Config{Seed: 1, Functions: 1200, MinLen: 12, MaxLen: 40},
		Model:         nn.Config{Ctx: 80, Dim: 64, Heads: 4, Layers: 2},
		MaxVocab:      1536,
		PretrainSteps: 320,
		PretrainBatch: 12,
		PretrainLR:    1.5e-3,
		CleanupSteps:  40,
		CleanupBatch:  12,
		Eq1Scale:      0.3,
		CoverageSteps: 15,
		CoverageBatch: 10,
		Weights:       DefaultRewardWeights(),
		BodyInstrs:    24,
		KLCoef:        0.05,
		PPOLr:         3e-4,
	}
}

// TestPipelineConfig returns a tiny configuration for unit tests.
func TestPipelineConfig() PipelineConfig {
	cfg := DefaultPipelineConfig()
	cfg.Corpus = corpus.Config{Seed: 1, Functions: 150, MinLen: 8, MaxLen: 18}
	cfg.Model = nn.Config{Ctx: 48, Dim: 32, Heads: 2, Layers: 1}
	cfg.MaxVocab = 512
	cfg.PretrainSteps = 120
	cfg.PretrainBatch = 8
	cfg.PretrainLR = 2e-3
	cfg.CleanupSteps = 10
	cfg.CleanupBatch = 8
	cfg.CoverageSteps = 4
	cfg.CoverageBatch = 6
	cfg.BodyInstrs = 12
	return cfg
}

// PPOStats re-exports the PPO monitoring statistics for consumers of
// the training history.
type PPOStats = ppo.Stats

// History records the monitored training metrics of each step.
type History struct {
	PretrainLoss []float64
	Cleanup      []ppo.Stats
	Coverage     []ppo.Stats
}

// Pipeline is ChatFuzz's LLM-based Input Generator under training.
type Pipeline struct {
	Cfg    PipelineConfig
	Corpus *corpus.Corpus
	Tok    *tok.Tokenizer
	Model  *nn.GPT
	Hist   History

	rng *rand.Rand
}

// NewPipeline generates the corpus, trains the tokenizer on it, and
// initialises the model.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := corpus.Generate(cfg.Corpus)
	t := tok.Train(c.Functions, cfg.MaxVocab)
	mcfg := cfg.Model
	mcfg.Vocab = t.Vocab()
	return &Pipeline{
		Cfg:    cfg,
		Corpus: c,
		Tok:    t,
		Model:  nn.NewGPT(mcfg, rng),
		rng:    rng,
	}
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.Cfg.Log != nil {
		fmt.Fprintf(p.Cfg.Log, format+"\n", args...)
	}
}

// Pretrain is training step 1: the model learns the machine language
// by next-token prediction over tokenised corpus functions. Every
// step's tape lives in one arena, rewound once the step has updated the
// weights, so a step after the first allocates little beyond its batch.
func (p *Pipeline) Pretrain() []float64 {
	opt := nn.NewAdam(p.Model.Params(), p.Cfg.PretrainLR)
	var arena tensor.Arena
	losses := make([]float64, 0, p.Cfg.PretrainSteps)
	for step := 0; step < p.Cfg.PretrainSteps; step++ {
		fns := p.Corpus.Sample(p.rng, p.Cfg.PretrainBatch)
		batch := make([][]int, len(fns))
		for i, fn := range fns {
			seq := p.Tok.Encode(fn)
			if len(seq) > p.Model.Cfg.Ctx {
				seq = seq[:p.Model.Cfg.Ctx]
			}
			batch[i] = seq
		}
		opt.ZeroGrad()
		loss, val := p.Model.LMLoss(&arena, batch)
		tensor.Backward(loss)
		opt.ClipGradNorm(1)
		opt.Step()
		arena.Reset()
		losses = append(losses, val)
		if step%50 == 0 {
			p.logf("step1 pretrain %4d/%d  loss %.4f", step, p.Cfg.PretrainSteps, val)
		}
	}
	p.Hist.PretrainLoss = losses
	return losses
}

// prompts draws a batch of tokenised prompts (BOS + the first 2–5
// instructions of corpus functions), as in §IV-C.2.
func (p *Pipeline) prompts(n int) [][]int {
	out := make([][]int, n)
	for i := range out {
		fn := p.Corpus.Functions[p.rng.Intn(len(p.Corpus.Functions))]
		pr := corpus.Prompt(p.rng, fn)
		out[i] = append([]int{tok.BOS}, p.Tok.EncodeBody(pr)...)
	}
	return out
}

func (p *Pipeline) ppoConfig() ppo.Config {
	cfg := ppo.DefaultConfig(tok.EOS)
	cfg.MaxNewTokens = 2 * p.Cfg.BodyInstrs
	cfg.KLCoef = p.Cfg.KLCoef
	cfg.LR = p.Cfg.PPOLr
	return cfg
}

// OnlinePPOConfig is the PPO configuration for learning *during*
// fuzzing (the online LLM generator and fleet-learning replicas): the
// offline training config with a gentler learning rate, so long
// campaigns refine the policy instead of drifting it away from the
// trained distribution.
func (p *Pipeline) OnlinePPOConfig() ppo.Config {
	cfg := p.ppoConfig()
	cfg.LR = 1e-4
	return cfg
}

// Cleanup is training step 2: PPO against the disassembler reward
// (Eq. 1), teaching the model to pair parcels into legal instructions
// and avoid illegal combinations.
func (p *Pipeline) Cleanup() []ppo.Stats {
	tr := ppo.NewTrainer(p.Model, p.ppoConfig(), p.rng)
	reward := Eq1Reward(p.Tok, p.Cfg.Eq1Scale)
	stats := make([]ppo.Stats, 0, p.Cfg.CleanupSteps)
	for step := 0; step < p.Cfg.CleanupSteps; step++ {
		st := tr.Step(p.prompts(p.Cfg.CleanupBatch), reward)
		stats = append(stats, st)
		if step%10 == 0 {
			p.logf("step2 cleanup %3d/%d  reward %.3f  kl %.4f  ploss %.4f",
				step, p.Cfg.CleanupSteps, st.MeanReward, st.MeanKL, st.PolicyLoss)
		}
	}
	p.Hist.Cleanup = stats
	return stats
}

// CoverageTune is training step 3: PPO where the reward embeds the
// Coverage Calculator's scores from simulating each generation on the
// DUT. Every generation runs on one runner of the DUT, into one
// coverage set and trace buffer reused across calls (the runner
// contract makes that the result DUT.Run would return).
func (p *Pipeline) CoverageTune(dut rtl.DUT) []ppo.Stats {
	tr := ppo.NewTrainer(p.Model, p.ppoConfig(), p.rng)
	calc := cov.NewCalculator(dut.Space())
	bins := dut.Space().NumBins()
	runner, set := dut.NewRunner(), dut.Space().NewSet()
	var traceBuf []trace.Entry
	reward := func(tokens []int, promptN int) float64 {
		words := p.Tok.Decode(tokens)
		if len(words) == 0 {
			return p.Cfg.Weights.NoImprovePenalty
		}
		img, _, err := prog.Build(prog.Program{Body: words})
		if err != nil {
			// An unbuildable generation must read as a penalty, not as
			// an all-zero image whose empty run would still be scored.
			return p.Cfg.Weights.NoImprovePenalty
		}
		set.Reset()
		res := runner.RunScratch(img, prog.InstructionBudget(len(words)), set, traceBuf)
		traceBuf = res.Trace
		return CoverageReward(calc.Score(res.Coverage), bins, p.Cfg.Weights)
	}
	stats := make([]ppo.Stats, 0, p.Cfg.CoverageSteps)
	for step := 0; step < p.Cfg.CoverageSteps; step++ {
		calc.BeginBatch()
		st := tr.Step(p.prompts(p.Cfg.CoverageBatch), reward)
		stats = append(stats, st)
		if step%5 == 0 {
			p.logf("step3 coverage %3d/%d  reward %.3f  total %.2f%%  kl %.4f",
				step, p.Cfg.CoverageSteps, st.MeanReward, calc.Total().Percent(), st.MeanKL)
		}
	}
	p.Hist.Coverage = stats
	return stats
}

// Run executes all three training steps against the given DUT.
func (p *Pipeline) Run(dut rtl.DUT) {
	p.logf("corpus: %d functions, %d instructions; vocab %d; model %d params",
		len(p.Corpus.Functions), p.Corpus.Instructions(), p.Tok.Vocab(), p.Model.NumParams())
	p.Pretrain()
	p.Cleanup()
	p.CoverageTune(dut)
}

// InvalidRate measures the model's current rate of invalid
// instructions over n sampled generations — the quantity step 2
// minimises. It reads only tokens, so nothing is recorded for a
// learner.
func (p *Pipeline) InvalidRate(n int) float64 {
	s := nn.NewSampler(p.Model)
	words, invalid := 0, 0
	for i := 0; i < n; i++ {
		pr := p.prompts(1)[0]
		res := s.Generate(p.rng, pr, 2*p.Cfg.BodyInstrs, 1.0, 0, tok.EOS, false)
		ws := p.Tok.Decode(res.Tokens[res.PromptN:])
		for _, w := range ws {
			words++
			if !validWord(w) {
				invalid++
			}
		}
	}
	if words == 0 {
		return 1
	}
	return float64(invalid) / float64(words)
}
