package core

import (
	"math/rand"
	"sync"
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/ml/tok"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

func TestEq1Reward(t *testing.T) {
	p := NewPipeline(TestPipelineConfig())
	reward := Eq1Reward(p.Tok, 1.0)
	// A prompt of 0 tokens + 3 valid instructions -> N=3, invalid=0.
	valid := []uint32{isa.NOP, isa.Enc(isa.OpADD, 1, 2, 3, 0), isa.Enc(isa.OpSD, 0, 8, 9, 16)}
	toks := p.Tok.EncodeBody(valid)
	if got := reward(toks, 0); got != 3 {
		t.Errorf("reward = %v, want 3", got)
	}
	// Two UNK parcels decode to one invalid word: N=1, invalid=1 -> -4.
	if got := reward([]int{tok.UNK, tok.UNK}, 0); got != -4 {
		t.Errorf("reward = %v, want -4", got)
	}
}

func TestCoverageRewardShape(t *testing.T) {
	w := DefaultRewardWeights()
	improving := CoverageReward(cov.Scores{Standalone: 50, Incremental: 10}, 1000, w)
	stagnant := CoverageReward(cov.Scores{Standalone: 50, Incremental: 0}, 1000, w)
	if improving <= stagnant {
		t.Errorf("improving %.3f must beat stagnant %.3f", improving, stagnant)
	}
	if stagnant >= 0.1 {
		t.Errorf("stagnant inputs should be penalised, got %.3f", stagnant)
	}
}

// trainedPipe is a shared pretrained pipeline for functional tests
// that need a working (not necessarily well-trained) model. Tests that
// mutate the model build their own.
var (
	trainedPipeOnce sync.Once
	trainedPipe     *Pipeline
)

func pretrainedPipeline() *Pipeline {
	trainedPipeOnce.Do(func() {
		trainedPipe = NewPipeline(TestPipelineConfig())
		trainedPipe.Pretrain()
	})
	return trainedPipe
}

// quickPipeline builds a minimally trained pipeline for tests that
// only need decodable generations (and may mutate the model).
func quickPipeline(seed int64) *Pipeline {
	cfg := TestPipelineConfig()
	cfg.Seed = seed
	cfg.PretrainSteps = 20
	p := NewPipeline(cfg)
	p.Pretrain()
	return p
}

func TestPipelineStep1ReducesLoss(t *testing.T) {
	p := pretrainedPipeline()
	losses := p.Hist.PretrainLoss
	first := avg(losses[:10])
	last := avg(losses[len(losses)-10:])
	t.Logf("pretrain loss: first %.3f last %.3f", first, last)
	if last >= first*0.9 {
		t.Errorf("pretraining barely learned: first %.3f last %.3f", first, last)
	}
}

func TestPipelineStep2ReducesInvalidRate(t *testing.T) {
	cfg := TestPipelineConfig()
	p := NewPipeline(cfg)
	p.Pretrain()
	before := p.InvalidRate(30)
	p.Cleanup()
	after := p.InvalidRate(30)
	t.Logf("invalid rate: before %.3f after %.3f", before, after)
	// Eq.1 training must not make generations less legal; at this tiny
	// scale we assert non-regression (the full-scale trend is
	// reproduced by experiment E7, `fuzz-bench -exp training`).
	if after > before+0.05 {
		t.Errorf("cleanup increased invalid rate: before %.3f after %.3f", before, after)
	}
	if len(p.Hist.Cleanup) != cfg.CleanupSteps {
		t.Fatalf("cleanup stats = %d, want %d", len(p.Hist.Cleanup), cfg.CleanupSteps)
	}
}

func TestPipelineStep3RunsAgainstDUT(t *testing.T) {
	p := quickPipeline(2)
	stats := p.CoverageTune(rocket.New())
	if len(stats) != p.Cfg.CoverageSteps {
		t.Fatalf("coverage stats = %d, want %d", len(stats), p.Cfg.CoverageSteps)
	}
	for i, st := range stats {
		if st.MeanLen <= 0 {
			t.Errorf("step %d generated nothing", i)
		}
	}
}

func TestLLMGeneratorProducesRunnablePrograms(t *testing.T) {
	p := pretrainedPipeline()
	g := NewLLMGenerator(p, rocket.New().Space().NumBins(), 11)
	progs := g.GenerateBatch(16)
	if len(progs) != 16 {
		t.Fatalf("batch = %d", len(progs))
	}
	nonEmpty := 0
	for _, pr := range progs {
		if len(pr.Body) > 0 {
			nonEmpty++
		}
		if len(pr.Body) > prog.MaxBodyInstructions {
			t.Error("body exceeds harness limit")
		}
	}
	if nonEmpty < 12 {
		t.Errorf("only %d/16 non-empty generations", nonEmpty)
	}
}

func avg(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rng helper referenced in docs examples.
var _ = rand.New
