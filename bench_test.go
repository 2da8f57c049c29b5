// Component microbenchmarks: DUT simulation, the golden ISS, LM
// generation and one PPO step, each timed the way a campaign drives
// it. The perf ledger proper is bench/ (`go run ./bench`, see its
// README.md); the paper's experiments run through
// `fuzz-bench -exp` (internal/exp).
package chatfuzz

import (
	"sync"
	"testing"

	"chatfuzz/internal/core"
	"chatfuzz/internal/corpus"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/trace"
)

// benchPipe is a once-trained pipeline shared by the LM benchmarks, of
// the shape the ledger's LM workloads run (core.TestPipelineConfig);
// training cost is excluded from their timings via ResetTimer.
var (
	benchOnce sync.Once
	benchPipe *core.Pipeline
)

func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe = core.NewPipeline(core.TestPipelineConfig())
		benchPipe.Pretrain()
		benchPipe.Cleanup()
	})
	return benchPipe
}

// simImages builds the corpus the component benchmarks simulate.
func simImages(seed int64) []mem.Image {
	c := corpus.Generate(corpus.Config{Seed: seed, Functions: 32, MinLen: 20, MaxLen: 40})
	imgs := make([]mem.Image, len(c.Functions))
	for i, fn := range c.Functions {
		imgs[i], _ = prog.MustBuild(prog.Program{Body: fn})
	}
	return imgs
}

// benchRunScratch times a DUT the way a fleet worker drives it: one
// runner, one coverage set and one trace buffer, reset per test. The
// runner is warmed first, so every timed run starts from its
// post-prologue checkpoint: insts/s counts trace entries, the harness
// prologue's replayed by copy included, and executed-insts/run is what
// a run really steps through — the entries past the prologue.
func benchRunScratch(b *testing.B, dut rtl.DUT, imgs []mem.Image) {
	runner := dut.NewRunner()
	set := dut.Space().NewSet()
	tr := runner.RunScratch(imgs[0], 2000, set, nil).Trace
	prologue := len(imgs[0].Segments[0].Data) / 4 // the init section is straight-line
	insts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Reset()
		tr = runner.RunScratch(imgs[i%len(imgs)], 2000, set, tr).Trace
		insts += len(tr)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
	b.ReportMetric(float64(insts)/float64(b.N)-float64(prologue), "executed-insts/run")
}

// BenchmarkRocketSimulation measures DUT simulation throughput.
func BenchmarkRocketSimulation(b *testing.B) { benchRunScratch(b, rocket.New(), simImages(1)) }

// BenchmarkBoomSimulation measures OoO model throughput.
func BenchmarkBoomSimulation(b *testing.B) { benchRunScratch(b, boom.New(), simImages(2)) }

// BenchmarkGoldenISS measures golden-model throughput over one reset
// memory and trace buffer, as the engine's golden path runs it.
func BenchmarkGoldenISS(b *testing.B) {
	imgs := simImages(3)
	gmem := mem.Platform()
	var tr []trace.Entry
	insts := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img := imgs[i%len(imgs)]
		gmem.Reset()
		gmem.Load(img)
		tr = iss.New(gmem, img.Entry).RunAppend(tr, 2000)
		insts += len(tr)
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkLMGeneration measures generation as a campaign runs it: a
// frozen LLMGenerator completing corpus prompt windows into 16-test
// batches on its one sampler. tokens/s counts the tokens of the
// emitted programs, two parcels an instruction, prompt windows
// included.
func BenchmarkLMGeneration(b *testing.B) {
	p := benchPipeline(b)
	g := core.NewLLMGenerator(p, rocket.New().Space().NumBins(), 1)
	tokens := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pr := range g.GenerateBatch(16) {
			tokens += 2 * len(pr.Body)
		}
	}
	b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tokens/s")
}

// rolloutTap is a core.RolloutSink that keeps the batch Feedback hands it.
type rolloutTap struct{ rolls []*ppo.Rollout }

func (t *rolloutTap) StepRollouts(rolls []*ppo.Rollout) ppo.Stats {
	t.rolls = rolls
	return ppo.Stats{}
}

// BenchmarkPPOStep measures one PPO optimisation step on a campaign's
// own kind of batch: 16 rollouts a replica generator recorded — prompt
// windows and generations of mixed length, so a padded batch would be
// part padding — replayed through StepRollouts on a clone of the model.
// rows/step is the batch's token count, the rows of its packed forward.
func BenchmarkPPOStep(b *testing.B) {
	p := benchPipeline(b)
	tap := &rolloutTap{}
	g := core.NewReplicaGenerator(p, p.Model, tap, rocket.New().Space().NumBins(), 2)
	g.GenerateBatch(16)
	g.Feedback(make([]cov.Scores, 16))
	recorded := tap.rolls[:min(16, len(tap.rolls))]
	rows := 0
	for _, r := range recorded {
		rows += len(r.Tokens)
	}
	tr := ppo.NewTrainer(p.Model.Clone(), p.OnlinePPOConfig(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// StepRollouts writes advantages into the rollouts it is given.
		batch := make([]*ppo.Rollout, len(recorded))
		for j, r := range recorded {
			batch[j] = &ppo.Rollout{Tokens: r.Tokens, PromptN: r.PromptN, LogpOld: r.LogpOld, Values: r.Values, Score: float64(j%3) - 0.5}
		}
		tr.StepRollouts(batch)
	}
	b.ReportMetric(float64(rows), "rows/step")
}
