// Package chatfuzz is the public API of the ChatFuzz reproduction: an
// ML-based hardware fuzzer (DATE 2024, arXiv:2404.06856) implemented
// end-to-end in pure Go — a GPT-2-style language model trained on
// machine code, refined with PPO against a disassembler and against
// RTL condition coverage, fuzzing simulated RocketCore/BOOM designs
// with differential mismatch detection against a golden-model ISS.
//
// Every campaign runs on the orchestrator. Quickstart (one campaign:
// a one-shard fleet with one arm, the model learning as it fuzzes):
//
//	cfg := chatfuzz.DefaultPipelineConfig()
//	p := chatfuzz.NewPipeline(cfg)
//	p.Run(chatfuzz.NewRocket())                      // 3-step training
//	o, err := chatfuzz.NewOrchestrator(
//	    chatfuzz.CampaignConfig{Shards: 1, BatchSize: 16, Seed: 1, Detect: true},
//	    chatfuzz.NewRocket, chatfuzz.LearningLLMArm(p))
//	defer o.Close()
//	err = o.RunTests(512)
//	fmt.Println(o.Coverage(), o.Shard(0).Det.Report())
//
// Sharded fleet: run N concurrent campaigns — each with its own DUT
// instance and virtual clock — and let a discounted UCB1 bandit
// allocate each round's batches among generator arms, rewarded by
// incremental merged coverage per virtual hour. Shard coverage bitmaps
// are aggregated into a fleet-global snapshot every round, and TheHuzz
// mutation pools are synced across shards and seeded with every arm's
// coverage-advancing programs:
//
//	o, err := chatfuzz.NewOrchestrator(
//	    chatfuzz.CampaignConfig{Shards: 4, BatchSize: 16, Seed: 1},
//	    chatfuzz.NewRocket,
//	    chatfuzz.LLMArm(p), chatfuzz.TheHuzzArm(24),
//	    chatfuzz.RandInstArm(24), chatfuzz.RandFuzzArm(24))
//	o.RunTests(2000)
//	fmt.Println(o.Report())          // merged coverage + per-arm pulls
//	for _, pt := range o.Trajectory() { ... }  // fleet-level Fig. 2 curve
//
// Fleets checkpoint and resume deterministically: a resumed run's
// merged trajectory is bit-identical to an uninterrupted one, because
// generator seeds are a pure function of (campaign seed, shard, round)
// and all scheduling state is serialized:
//
//	o.CheckpointFile("fleet.json")
//	f, err := os.Open("fleet.json")
//	o2, err := chatfuzz.ResumeCampaign(f, chatfuzz.NewRocket,
//	    chatfuzz.LLMArm(p), chatfuzz.TheHuzzArm(24),
//	    chatfuzz.RandInstArm(24), chatfuzz.RandFuzzArm(24))
//	f.Close()
//	o2.RunTests(4000)
//
// Execution: there is one production path. Each shard's goroutine is
// the committer of a persistent engine — it runs its own round's
// entries on scratch it keeps for life (platform memory, golden-model
// ISS, caches, coverage sets, trace buffers) and commits results in
// deterministic input order — and a pool of workers fills whatever
// cores the committers leave idle (GOMAXPROCS−Shards; computed, never
// configured), claiming from the oldest live round first, whatever its
// shard or design. Nothing about pool size or claim order is
// observable: trajectories and checkpoints are bit-identical to the
// allocating reference loop the tests use as their oracle.
// CampaignConfig's embedded CampaignExec
// carries what is left of the execution side — Telemetry (the span
// flight recorder) and Metrics (the registry the barrier updates each
// round, including the probe/* histograms of barrier wait, split into
// the sim-skew wait spare cores absorb and the learning join) — and
// ResumeCampaignExec takes the same value,
// so a resumed fleet runs and is observed exactly like a fresh one.
// Call Orchestrator.Close when a campaign is finished to release the
// pool's workers deterministically.
//
// Mixed fleets: NewMixedOrchestrator runs heterogeneous designs in
// one fleet — shard s simulates newDUTs[s%len(newDUTs)], each design
// keeps its own merged coverage bitmap, and the bandit schedules arms
// across the whole fleet:
//
//	o, err := chatfuzz.NewMixedOrchestrator(
//	    chatfuzz.CampaignConfig{Shards: 4, Seed: 1},
//	    []func() chatfuzz.DUT{chatfuzz.NewRocket, chatfuzz.NewBoom},
//	    chatfuzz.TheHuzzArm(24), chatfuzz.RandInstArm(24))
//
// Online fleet learning: LLMArm samples the trained model read-only,
// but LearningLLMArm keeps the model improving *during* the campaign —
// the paper's feedback arrow, under sharding. Each shard owns a deep
// copy of the model; rollouts sampled from it are buffered per round,
// PPO trains on them off the round's critical path, and the trained
// replicas are averaged deterministically (a fixed-order pairwise
// tournament, exact mean in real arithmetic) and published one round
// late — the internal/fleetlearn invariant, making the trajectory a
// pure function of seeds and shard order. The training always overlaps
// the next round's simulation on a background goroutine, and
// CampaignConfig.UpdateBudget skips updates while merged coverage is
// plateaued to buy virtual time for detection fleets. Checkpoints
// (v4) carry the published and staged weight vectors and each shard's
// clustered mismatch-detector state, so a learning campaign resumed
// even mid-lag replays bit-identically and reports cumulative
// findings:
//
//	o, err := chatfuzz.NewOrchestrator(
//	    chatfuzz.CampaignConfig{Shards: 4, Seed: 1, Detect: true},
//	    chatfuzz.NewRocket,
//	    chatfuzz.LearningLLMArm(p), chatfuzz.TheHuzzArm(24))
//	o.RunTests(2000)
//	w := o.LearnedWeights("chatfuzz-learn") // merged policy weights
//
// Detection-oriented scheduling: CampaignConfig.MismatchWeight blends
// a mismatch-novelty term into the bandit reward — growth of the
// detector's non-filtered signature clusters per virtual hour, so a
// noisy divergence repeating one signature pays once — steering
// rounds toward generators that surface new kinds of DUT-vs-golden
// divergences rather than raw coverage alone.
package chatfuzz

import (
	"io"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/exp"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// Core fuzzing types.
type (
	// Pipeline is ChatFuzz's three-step training pipeline.
	Pipeline = core.Pipeline
	// PipelineConfig parameterises training.
	PipelineConfig = core.PipelineConfig
	// ProgressPoint samples the coverage trajectory.
	ProgressPoint = campaign.ProgressPoint
	// RewardWeights shapes the coverage reward.
	RewardWeights = core.RewardWeights

	// DUT is a simulated design under test.
	DUT = rtl.DUT
	// Result is one simulation's outcome.
	Result = rtl.Result
	// Program is one fuzz input.
	Program = prog.Program

	// Detector is the differential Mismatch Detector.
	Detector = mismatch.Detector
	// Finding classifies a mismatch root cause.
	Finding = mismatch.Finding

	// CoverageScores are the Coverage Calculator's per-input values.
	CoverageScores = cov.Scores

	// Suite runs the paper's full experiment set.
	Suite = exp.Suite
	// Scale sizes an experiment run.
	Scale = exp.Scale

	// Orchestrator runs sharded multi-campaign fleets under bandit
	// generator scheduling.
	Orchestrator = campaign.Orchestrator
	// CampaignConfig parameterises an orchestrated fleet.
	CampaignConfig = campaign.Config
	// CampaignExec is how a process runs and observes a fleet (embedded
	// in CampaignConfig, never checkpointed).
	CampaignExec = campaign.Exec
	// ArmSpec names a schedulable generator arm.
	ArmSpec = campaign.ArmSpec
	// CampaignReport summarises a fleet run, including per-arm pulls.
	CampaignReport = campaign.Report
	// ArmReport is one arm's scheduling statistics.
	ArmReport = campaign.ArmReport
	// DesignReport is one design's merged coverage in a mixed fleet.
	DesignReport = campaign.DesignReport
)

// Finding identifiers (paper §V-B).
const (
	FindingBug1 = mismatch.FindingBug1
	FindingBug2 = mismatch.FindingBug2
	Finding1    = mismatch.Finding1
	Finding2    = mismatch.Finding2
	Finding3    = mismatch.Finding3
)

// DefaultPipelineConfig returns the default training configuration.
func DefaultPipelineConfig() PipelineConfig { return core.DefaultPipelineConfig() }

// NewPipeline builds corpus, tokenizer and model.
func NewPipeline(cfg PipelineConfig) *Pipeline { return core.NewPipeline(cfg) }

// NewRocket returns the RocketCore DUT model (with the paper's five
// injected findings).
func NewRocket() DUT { return rocket.New() }

// NewBoom returns the BOOM DUT model.
func NewBoom() DUT { return boom.New() }

// NewOrchestrator builds a sharded fleet: one DUT per shard via
// newDUT, one instance of every arm per shard, and a shared discounted
// UCB1 bandit allocating rounds among the arms.
func NewOrchestrator(cfg CampaignConfig, newDUT func() DUT, arms ...ArmSpec) (*Orchestrator, error) {
	return campaign.New(cfg, newDUT, arms...)
}

// NewMixedOrchestrator builds a heterogeneous fleet: shard s simulates
// the design built by newDUTs[s % len(newDUTs)] (e.g. an alternating
// Rocket+BOOM fleet), with per-design merged coverage bitmaps and a
// fleet-wide bandit.
func NewMixedOrchestrator(cfg CampaignConfig, newDUTs []func() DUT, arms ...ArmSpec) (*Orchestrator, error) {
	return campaign.NewMixed(cfg, newDUTs, arms...)
}

// ResumeCampaign rebuilds a fleet from a checkpoint written by
// Orchestrator.Checkpoint; the continued merged trajectory is
// bit-identical to an uninterrupted run.
func ResumeCampaign(r io.Reader, newDUT func() DUT, arms ...ArmSpec) (*Orchestrator, error) {
	return campaign.Resume(r, newDUT, arms...)
}

// ResumeMixedCampaign rebuilds a heterogeneous fleet from a checkpoint;
// newDUTs must reproduce the original shard-to-design mapping.
func ResumeMixedCampaign(r io.Reader, newDUTs []func() DUT, arms ...ArmSpec) (*Orchestrator, error) {
	return campaign.ResumeMixed(r, newDUTs, arms...)
}

// ResumeCampaignExec is the general resume entry: it rebuilds a
// (possibly heterogeneous) fleet from a checkpoint and runs it under
// ex, the same value a fresh fleet takes through CampaignConfig.
func ResumeCampaignExec(r io.Reader, ex CampaignExec, newDUTs []func() DUT, arms ...ArmSpec) (*Orchestrator, error) {
	return campaign.ResumeExec(r, ex, newDUTs, arms...)
}

// LLMArm schedules a trained pipeline's model as a frozen generator
// arm (no updates during the campaign).
func LLMArm(p *Pipeline) ArmSpec { return campaign.LLMArm(p) }

// LearningLLMArm schedules the model as an online-learning arm:
// per-shard PPO replicas with deterministic weight averaging at every
// round barrier. Resuming a checkpointed learning fleet requires the
// same trained pipeline the original run used.
func LearningLLMArm(p *Pipeline) ArmSpec { return campaign.LearningLLMArm(p) }

// TheHuzzArm schedules the TheHuzz mutation baseline as an arm.
func TheHuzzArm(bodyInstrs int) ArmSpec { return campaign.TheHuzzArm(bodyInstrs) }

// RandInstArm schedules the ISA-aware random generator as an arm.
func RandInstArm(bodyInstrs int) ArmSpec { return campaign.RandInstArm(bodyInstrs) }

// RandFuzzArm schedules the raw random-word generator as an arm.
func RandFuzzArm(bodyInstrs int) ArmSpec { return campaign.RandFuzzArm(bodyInstrs) }

// QuickScale returns the laptop-sized experiment scale.
func QuickScale() Scale { return exp.Quick() }

// PaperScale returns the full-scale experiment configuration.
func PaperScale() Scale { return exp.Paper() }
