// Benchmarks regenerating every table and figure of the paper's
// evaluation at bench scale (each benchmark's comment names the
// internal/exp experiment id it mirrors; the perf ledger proper is
// bench/, see its README.md). Coverage percentages, speedups and
// mismatch counts are attached to the benchmark output via
// ReportMetric, so
// `go test -bench=. -benchmem` prints the reproduced rows; the
// full-scale campaign lives in cmd/fuzz-bench.
package chatfuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/corpus"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/telemetry"
	"chatfuzz/internal/trace"
)

// emitBench mirrors a benchmark's ReportMetric values into the bench
// trajectory file BENCH_pr<pr>.json when BENCH_JSON_DIR is set (CI
// points it at the workspace; locally it is usually unset and this is
// a no-op). telemetry.WriteBenchFile merges into an existing file, so
// several benchmarks contributing to the same PR's row accumulate one
// object instead of clobbering each other — this replaces the awk
// scrape of the benchmark stdout that CI used to assemble these files.
func emitBench(b *testing.B, pr int, vals map[string]float64) {
	b.Helper()
	dir := os.Getenv("BENCH_JSON_DIR")
	if dir == "" {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_pr%d.json", pr))
	if err := telemetry.WriteBenchFile(path, pr, vals); err != nil {
		b.Fatalf("writing %s: %v", path, err)
	}
}

// benchPipe is a once-trained small pipeline shared by the experiment
// benchmarks (training cost is excluded from their timings via
// ResetTimer).
var (
	benchOnce sync.Once
	benchPipe *core.Pipeline
)

func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		cfg := core.DefaultPipelineConfig()
		cfg.Corpus.Functions = 600
		cfg.Model = nn.Config{Ctx: 64, Dim: 48, Heads: 4, Layers: 2}
		cfg.MaxVocab = 1024
		cfg.PretrainSteps = 150
		cfg.CleanupSteps = 15
		cfg.CoverageSteps = 0
		benchPipe = core.NewPipeline(cfg)
		benchPipe.Pretrain()
		benchPipe.Cleanup()
	})
	return benchPipe
}

const benchBody = 24

// runBenchCampaign runs one scaled campaign and returns the (closed)
// fuzzer: its engine workers are released, its results stay readable.
func runBenchCampaign(gen core.Generator, dutName string, tests int, detect bool) *core.Fuzzer {
	var f *core.Fuzzer
	if dutName == "boom" {
		f = core.NewFuzzer(gen, boom.New(), core.Options{BatchSize: 16, Detect: detect})
	} else {
		f = core.NewFuzzer(gen, rocket.New(), core.Options{BatchSize: 16, Detect: detect})
	}
	defer f.Close()
	f.RunTests(tests)
	return f
}

// BenchmarkFig2CoverageOverTime is experiment E1: the ChatFuzz and
// TheHuzz coverage trajectories on Rocket (Fig. 2's two series).
func BenchmarkFig2CoverageOverTime(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		chat := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 1), "rocket", 320, false)
		huzz := runBenchCampaign(thehuzz.New(2, benchBody), "rocket", 320, false)
		b.ReportMetric(chat.Coverage(), "chatfuzz_%")
		b.ReportMetric(huzz.Coverage(), "thehuzz_%")
		b.ReportMetric(chat.Clk.Hours(), "virt_hours")
	}
}

// BenchmarkTableCoverage1800 is experiment E2: coverage at an equal
// (scaled) test budget — paper row: ChatFuzz 74.96% vs TheHuzz 67.4%.
func BenchmarkTableCoverage1800(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		chat := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 3), "rocket", 400, false)
		huzz := runBenchCampaign(thehuzz.New(4, benchBody), "rocket", 400, false)
		b.ReportMetric(chat.Coverage(), "chatfuzz_%")
		b.ReportMetric(huzz.Coverage(), "thehuzz_%")
	}
}

// BenchmarkTableCoverage199k is experiment E3 (scaled): coverage at a
// large budget — paper row: 79.14% vs 76.7% at 199 K tests.
func BenchmarkTableCoverage199k(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		chat := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 5), "rocket", 960, false)
		huzz := runBenchCampaign(thehuzz.New(6, benchBody), "rocket", 960, false)
		b.ReportMetric(chat.Coverage(), "chatfuzz_%")
		b.ReportMetric(huzz.Coverage(), "thehuzz_%")
	}
}

// BenchmarkTableTimeTo75 is experiment E4: virtual time for TheHuzz to
// reach ChatFuzz's small-budget coverage (paper: 34.6× slower).
func BenchmarkTableTimeTo75(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		chat := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 7), "rocket", 320, false)
		target := chat.Coverage()
		tChat := chat.TimeToCoverage(target)

		huzz := runBenchCampaign(thehuzz.New(8, benchBody), "rocket", 960, false)
		tHuzz := huzz.TimeToCoverage(target)
		if tHuzz < 0 {
			tHuzz = huzz.Clk.Hours() // lower bound: never reached
		}
		if tChat > 0 {
			b.ReportMetric(tHuzz/tChat, "speedup_x")
		}
		b.ReportMetric(target, "target_%")
	}
}

// BenchmarkBoomCoverage is experiment E5: ChatFuzz on the BOOM model
// (paper: 97.02% in 49 minutes).
func BenchmarkBoomCoverage(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := boom.New()
		chat := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 9), "boom", 320, false)
		b.ReportMetric(chat.Coverage(), "boom_%")
		b.ReportMetric(chat.Clk.Hours()*60, "virt_min")
	}
}

// BenchmarkFindingsMismatches is experiment E6: differential testing
// finds and classifies the injected findings (paper: 5 866 raw
// mismatches, >100 unique, Bug1/Bug2 + Findings 1-3).
func BenchmarkFindingsMismatches(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		f := runBenchCampaign(core.NewLLMGenerator(p, dut.Space().NumBins(), false, 11), "rocket", 320, true)
		b.ReportMetric(float64(f.Det.RawCount), "raw_mismatches")
		b.ReportMetric(float64(len(f.Det.Unique())), "unique")
		b.ReportMetric(float64(len(f.Det.Findings())), "findings")
	}
}

// BenchmarkTrainingStep2Reward is experiment E7: the Eq. 1 reward
// trend during PPO language cleanup.
func BenchmarkTrainingStep2Reward(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultPipelineConfig()
		cfg.Corpus.Functions = 300
		cfg.Model = nn.Config{Ctx: 64, Dim: 32, Heads: 2, Layers: 1}
		cfg.MaxVocab = 512
		cfg.PretrainSteps = 60
		cfg.CleanupSteps = 10
		p := core.NewPipeline(cfg)
		p.Pretrain()
		st := p.Cleanup()
		b.ReportMetric(st[0].MeanReward, "reward_first")
		b.ReportMetric(st[len(st)-1].MeanReward, "reward_last")
		b.ReportMetric(st[len(st)-1].MeanKL, "kl_last")
	}
}

// BenchmarkTrainingStep3Reward is experiment E8: the coverage-reward
// trend during PPO coverage optimisation.
func BenchmarkTrainingStep3Reward(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := p.Cfg
		cfg.CoverageSteps = 6
		cfg.CoverageBatch = 8
		// CoverageTune mutates the model; run on a clone to keep the
		// shared bench pipeline stable.
		clone := *p
		clone.Cfg = cfg
		clone.Model = p.Model.Clone()
		st := clone.CoverageTune(rocket.New())
		b.ReportMetric(st[0].MeanReward, "reward_first")
		b.ReportMetric(st[len(st)-1].MeanReward, "reward_last")
	}
}

// BenchmarkAblationNoCleanup is ablation A1: invalid-instruction rate
// with and without training step 2.
func BenchmarkAblationNoCleanup(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := p.Cfg
		cfg.PretrainSteps = 80
		cfg.CleanupSteps = 0
		noClean := core.NewPipeline(cfg)
		noClean.Pretrain()
		b.ReportMetric(100*p.InvalidRate(15), "invalid_full_%")
		b.ReportMetric(100*noClean.InvalidRate(15), "invalid_noclean_%")
	}
}

// BenchmarkAblationReward is ablation A2: the paper's three-term
// coverage reward vs an incremental-only variant.
func BenchmarkAblationReward(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dut := rocket.New()
		gDef := core.NewLLMGenerator(p, dut.Space().NumBins(), true, 13)
		def := runBenchCampaign(gDef, "rocket", 240, false)

		gInc := core.NewLLMGenerator(p, dut.Space().NumBins(), true, 13)
		gInc.Weights = core.IncrementalOnlyWeights()
		inc := runBenchCampaign(gInc, "rocket", 240, false)

		b.ReportMetric(def.Coverage(), "default_%")
		b.ReportMetric(inc.Coverage(), "inconly_%")
	}
}

// BenchmarkAblationBaselines is ablation A3: baseline ordering.
func BenchmarkAblationBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		huzz := runBenchCampaign(thehuzz.New(15, benchBody), "rocket", 480, false)
		valid := runBenchCampaign(randfuzz.New(16, benchBody), "rocket", 480, false)
		raw := randfuzz.New(17, benchBody)
		raw.Raw = true
		rawF := runBenchCampaign(raw, "rocket", 480, false)
		b.ReportMetric(huzz.Coverage(), "thehuzz_%")
		b.ReportMetric(valid.Coverage(), "random_%")
		b.ReportMetric(rawF.Coverage(), "raw_%")
	}
}

// BenchmarkCampaignOrchestrator runs the sharded multi-campaign
// orchestrator (4 shards, bandit over LLM/TheHuzz/random arms) against
// a single TheHuzz campaign at the same total test budget, reporting
// the merged fleet coverage, the fleet's virtual wall-clock speedup
// from sharding, and the real wall-clock speedup of running the fleet
// on the production executor versus the reference oracle.
func BenchmarkCampaignOrchestrator(b *testing.B) {
	p := benchPipeline(b)
	newFleet := func(serial bool) *campaign.Orchestrator {
		o, err := campaign.New(campaign.Config{Shards: 4, BatchSize: 16, Seed: 1, Exec: campaign.Exec{Serial: serial}},
			func() rtl.DUT { return rocket.New() },
			campaign.LLMArm(p),
			campaign.TheHuzzArm(benchBody),
			campaign.RandInstArm(benchBody),
			campaign.RandFuzzArm(benchBody))
		if err != nil {
			b.Fatal(err)
		}
		return o
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serialFleet := newFleet(true)
		serialFleet.RunTests(320)
		serialFleet.Close()
		tSerial := time.Since(t0)

		t1 := time.Now()
		o := newFleet(false)
		o.RunTests(320)
		tEngine := time.Since(t1)

		single := runBenchCampaign(thehuzz.New(1, benchBody), "rocket", 320, false)

		b.ReportMetric(o.Coverage(), "fleet_%")
		b.ReportMetric(single.Coverage(), "single_%")
		if h := o.Hours(); h > 0 {
			b.ReportMetric(single.Clk.Hours()/h, "speedup_x")
		}
		b.ReportMetric(tSerial.Seconds()/tEngine.Seconds(), "engine_speedup_x")
		var pulls float64
		for _, a := range o.Report().Arms {
			pulls += float64(a.Pulls)
		}
		o.Close()
		b.ReportMetric(pulls, "arm_pulls")
	}
}

// BenchmarkOnlineLearning is the fleet-learning acceptance benchmark.
// It runs the same 2-shard detecting fleet twice at an equal test
// budget — once with the online-learning LLM arm (per-shard PPO
// replicas, deterministic barrier weight averaging) and once with the
// frozen LLM arm — and reports both merged coverages at equal virtual
// time plus the learning delta. It also checkpoints a learning fleet
// mid-campaign and asserts (not merely reports) that the resumed run
// reproduces the uninterrupted trajectory, detector report and merged
// model weights bit-for-bit.
func BenchmarkOnlineLearning(b *testing.B) {
	p := benchPipeline(b)
	const tests = 384
	cfg := campaign.Config{Shards: 2, BatchSize: 16, Seed: 1, Detect: true}
	arms := func(learn bool) []campaign.ArmSpec {
		llm := campaign.LLMArm(p)
		if learn {
			llm = campaign.LearningLLMArm(p)
		}
		return []campaign.ArmSpec{llm, campaign.TheHuzzArm(benchBody)}
	}
	newFleet := func(learn bool) *campaign.Orchestrator {
		o, err := campaign.New(cfg, func() rtl.DUT { return rocket.New() }, arms(learn)...)
		if err != nil {
			b.Fatal(err)
		}
		return o
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		learning := newFleet(true)
		learning.RunTests(tests)
		frozen := newFleet(false)
		frozen.RunTests(tests)
		h := learning.Hours()
		if fh := frozen.Hours(); fh < h {
			h = fh
		}
		lc, fc := learning.CoverageAt(h), frozen.CoverageAt(h)
		b.ReportMetric(lc, "learn_%")
		b.ReportMetric(fc, "frozen_%")
		b.ReportMetric(lc-fc, "learn_delta_%")
		emitBench(b, 3, map[string]float64{
			"learn_pct": lc, "frozen_pct": fc, "learn_delta_pct": lc - fc,
		})
		frozen.Close()

		// Checkpoint/resume bit-identity at the half-way barrier.
		half := newFleet(true)
		half.RunTests(tests / 2)
		path := b.TempDir() + "/learn.json"
		if err := half.CheckpointFile(path); err != nil {
			b.Fatal(err)
		}
		half.Close()
		resumed, err := campaign.ResumeFile(path, func() rtl.DUT { return rocket.New() }, arms(true)...)
		if err != nil {
			b.Fatal(err)
		}
		resumed.RunTests(tests)
		want, got := learning.Trajectory(), resumed.Trajectory()
		if len(want) != len(got) {
			b.Fatalf("resumed trajectory has %d points, want %d", len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				b.Fatalf("resumed trajectory diverges at round %d: %+v vs %+v", j, got[j], want[j])
			}
		}
		for s := 0; s < cfg.Shards; s++ {
			if learning.Shard(s).Det.Report() != resumed.Shard(s).Det.Report() {
				b.Fatalf("shard %d detector report differs after resume", s)
			}
		}
		ww, gw := learning.LearnedWeights("chatfuzz-learn"), resumed.LearnedWeights("chatfuzz-learn")
		for j := range ww {
			if ww[j] != gw[j] {
				b.Fatalf("merged weights differ after resume at scalar %d", j)
			}
		}
		learning.Close()
		resumed.Close()
	}
}

// rigDUT models a simulator rig in the paper's cost regime: RTL
// simulation is the binding cost (VCS spends seconds per test, and
// BOOM's out-of-order core simulates several times slower than
// Rocket), while the toy core models here run in tens of
// microseconds. Each run therefore carries a per-test rig latency —
// still ~100x faster than the modelled VCS rigs — which makes the
// fleet heterogeneous the same way a real Rocket+BOOM farm is. rigDUT deliberately does
// not implement rtl.ReusableDUT: the latency is part of Run.
type rigDUT struct {
	rtl.DUT
	latency time.Duration
}

func (r *rigDUT) Name() string { return r.DUT.Name() + "-rig" }

func (r *rigDUT) Run(img mem.Image, maxInsts int) rtl.Result {
	time.Sleep(r.latency)
	return r.DUT.Run(img, maxInsts)
}

// BenchmarkTelemetryOverhead is the observability acceptance
// benchmark: a skewed mixed rig fleet (Rocket and slower BOOM rigs, a
// learning arm training off the barrier) run on the production path,
// timed with telemetry fully disabled and fully armed (flight
// recorder, metrics registry and probes all on). The two trajectories are asserted bit-identical
// — telemetry is execution-only — and telemetry_overhead_% reports
// the wall-clock cost of recording, which CI gates below 3%. The rig
// latencies dominate the timing the way VCS does in the paper's
// regime, so the ratio is stable on a noisy shared runner.
func BenchmarkTelemetryOverhead(b *testing.B) {
	p := core.NewPipeline(core.TestPipelineConfig())
	const tests = 384
	newDUTs := []func() rtl.DUT{
		func() rtl.DUT { return &rigDUT{DUT: rocket.New(), latency: 8 * time.Millisecond} },
		func() rtl.DUT { return &rigDUT{DUT: boom.New(), latency: 24 * time.Millisecond} },
	}
	arms := []campaign.ArmSpec{
		campaign.LearningLLMArm(p),
		campaign.TheHuzzArm(benchBody),
		campaign.RandInstArm(benchBody),
		campaign.RandFuzzArm(benchBody),
	}
	run := func(armed bool) (time.Duration, []core.ProgressPoint) {
		cfg := campaign.Config{Shards: 8, BatchSize: 16, Seed: 1, Detect: true}
		var rec *telemetry.Recorder
		if armed {
			rec = telemetry.NewRecorder(io.Discard)
			cfg.Exec = campaign.Exec{Probe: true, Telemetry: rec, Metrics: telemetry.NewRegistry()}
		}
		o, err := campaign.NewMixed(cfg, newDUTs, arms...)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		o.RunTests(tests)
		dt := time.Since(t0)
		traj := o.Trajectory()
		o.Close()
		if rec != nil {
			if err := rec.Close(); err != nil {
				b.Fatal(err)
			}
		}
		return dt, traj
	}
	// Warm the harness caches and code paths outside the timings.
	if _, traj := run(true); len(traj) == 0 {
		b.Fatal("warmup run produced no trajectory")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tOff, wantTraj := run(false)
		tOn, gotTraj := run(true)
		if len(wantTraj) != len(gotTraj) {
			b.Fatalf("armed trajectory has %d points, disabled has %d", len(gotTraj), len(wantTraj))
		}
		for j := range wantTraj {
			if wantTraj[j] != gotTraj[j] {
				b.Fatalf("trajectory diverges at round %d with telemetry armed: %+v vs %+v",
					j, gotTraj[j], wantTraj[j])
			}
		}
		overhead := 100 * (tOn.Seconds()/tOff.Seconds() - 1)
		b.ReportMetric(overhead, "telemetry_overhead_%")
		emitBench(b, 8, map[string]float64{"telemetry_overhead_pct": overhead})
	}
}

// ---- Component throughput benchmarks ----

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
func benchRunScratch(b *testing.B, dut rtl.ReusableDUT, imgs []mem.Image) {
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
	g := core.NewLLMGenerator(p, rocket.New().Space().NumBins(), false, 1)
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
