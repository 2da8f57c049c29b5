package core

import (
	"math/rand"
	"sync"
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine/enginetest"
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

func TestFuzzerAccumulatesCoverageMonotonically(t *testing.T) {
	g := randfuzz.New(1, 20)
	f := NewFuzzer(g, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 8})
	prevBins, prevSecs := 0, 0.0
	for i := 0; i < 8; i++ {
		f.RunBatch()
		bins, secs := f.Calc.Total().Count(), f.Clk.Seconds()
		if bins < prevBins {
			t.Fatalf("coverage decreased at batch %d: %d -> %d bins", i, prevBins, bins)
		}
		if secs <= prevSecs {
			t.Fatalf("virtual clock did not advance at batch %d", i)
		}
		prevBins, prevSecs = bins, secs
	}
	if f.Tests != 64 {
		t.Errorf("Tests = %d, want 64", f.Tests)
	}
	if f.Calc.Total().Percent() <= 0 {
		t.Error("no coverage accumulated")
	}
}

func TestFuzzerDetectsFindingsWithLLM(t *testing.T) {
	// A short campaign with the trained model over a corpus that
	// includes self-modifying code, MUL/DIV, AMOs: the detector should
	// fire on at least Bug2 (any mul/div in a passing trace mismatches).
	p := pretrainedPipeline()
	g := NewLLMGenerator(p, rocket.New().Space().NumBins(), 7)
	f := NewFuzzer(g, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 8, Detect: true})
	f.RunBatches(10)
	if f.Det.RawCount == 0 {
		t.Error("no mismatches found by differential testing")
	}
	found := f.Det.Findings()
	if len(found) == 0 {
		t.Error("no classified findings")
	}
}

func TestFuzzerDeterminism(t *testing.T) {
	run := func() (float64, int) {
		g := randfuzz.New(3, 16)
		f := NewFuzzer(g, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 8})
		f.RunBatches(6)
		return f.Calc.Total().Percent(), f.Tests
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Errorf("campaign not deterministic: (%.4f,%d) vs (%.4f,%d)", c1, n1, c2, n2)
	}
}

func TestTheHuzzPoolGrowsAndMutates(t *testing.T) {
	g := thehuzz.New(1, 20)
	f := NewFuzzer(g, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 16})
	f.RunBatches(10)
	if g.PoolSize() == 0 {
		t.Error("TheHuzz pool never accumulated interesting inputs")
	}
}

func TestCoverageGuidanceBeatsNoFeedback(t *testing.T) {
	// TheHuzz (coverage feedback) vs raw-random (no feedback, mostly
	// illegal words) on an equal budget: feedback must win clearly.
	const batches = 20 // 320 tests
	th := thehuzz.New(5, 20)
	fTH := NewFuzzer(th, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 16})
	fTH.RunBatches(batches)

	raw := randfuzz.New(5, 20)
	raw.Raw = true
	fRaw := NewFuzzer(raw, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 16})
	fRaw.RunBatches(batches)

	t.Logf("thehuzz %.2f%%  raw-random %.2f%%", fTH.Calc.Total().Percent(), fRaw.Calc.Total().Percent())
	if fTH.Calc.Total().Percent() <= fRaw.Calc.Total().Percent() {
		t.Errorf("coverage feedback (%.2f%%) should beat raw random (%.2f%%)",
			fTH.Calc.Total().Percent(), fRaw.Calc.Total().Percent())
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
