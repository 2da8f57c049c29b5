package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"chatfuzz/internal/ml/nn"
)

// TestGoldenPipelinePretrain pins training step 1 of the test-scale
// pipeline bit for bit: the SHA-256 of its weights (nn.EncodeWeights)
// after Pretrain and the last step's loss, recorded when every
// sequence was fed whole, on the heap, with its last row masked. Like
// every golden it assumes math.Exp's AVX+FMA body (see
// tensor.TestExpPathMatchesGoldens).
func TestGoldenPipelinePretrain(t *testing.T) {
	const (
		wantSHA  = "2fbc681f4c6b1f0223f1b94d208859569ec3cabe3d033ec5807f2b94a4af4659"
		wantLoss = 2.670991055426544
	)
	p := NewPipeline(TestPipelineConfig())
	losses := p.Pretrain()
	sum := sha256.Sum256([]byte(nn.EncodeWeights(p.Model.FlattenParams(nil))))
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Errorf("weights after Pretrain: sha256 %s, want %s", got, wantSHA)
	}
	if got := losses[len(losses)-1]; math.Float64bits(got) != math.Float64bits(wantLoss) {
		t.Errorf("last pretraining loss %v, want %v", got, wantLoss)
	}
}

// TestPretrainReusesItsTape: a pretraining step after the first builds
// its tape in the stage's arena, so what it allocates is the batch and
// the bookkeeping around it, not the tape (about 10 MB a step on the
// heap at this scale). The steady-state cost is the difference between
// two runs of the same pipeline, which share their first steps, over
// the steps one runs more than the other.
func TestPretrainReusesItsTape(t *testing.T) {
	const short, long = 4, 24
	alloc := func(steps int) uint64 {
		cfg := TestPipelineConfig()
		cfg.PretrainSteps = steps
		p := NewPipeline(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p.Pretrain()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	a, b := alloc(short), alloc(long)
	perStep := (float64(b) - float64(a)) / (long - short)
	t.Logf("steady-state pretraining step: %.3f MB", perStep/1e6)
	if perStep >= 1e6 {
		t.Errorf("a steady-state pretraining step allocates %.2f MB, want under 1 MB", perStep/1e6)
	}
}
