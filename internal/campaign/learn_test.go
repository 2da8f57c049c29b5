package campaign

import (
	"bytes"
	"math"
	"testing"

	"chatfuzz/internal/core"
	"chatfuzz/internal/rtl"
)

// learnPipeline builds the tiny untrained pipeline the learning-arm
// tests share (model quality is irrelevant to the mechanics; weight
// initialisation is seeded, so two builds are bit-identical).
func learnPipeline() *core.Pipeline {
	return core.NewPipeline(core.TestPipelineConfig())
}

func learnArms(p *core.Pipeline) []ArmSpec {
	return []ArmSpec{LearningLLMArm(p), RandInstArm(p.Cfg.BodyInstrs)}
}

// TestBarrierAveragingSynchronizesReplicas: after any round, every
// shard's replica must hold the same merged weights (the barrier
// redistributes to participants and bystanders alike), and the
// pipeline's own model must stay bit-untouched — replicas are copies,
// not views.
func TestBarrierAveragingSynchronizesReplicas(t *testing.T) {
	p := learnPipeline()
	before := p.Model.FlattenParams(nil)

	o, err := New(Config{Shards: 3, BatchSize: 4, Seed: 17}, newRocket, learnArms(p)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	o.RunRounds(3)

	if o.Report().Arms[0].Pulls == 0 {
		t.Fatal("learning arm was never scheduled")
	}
	fl := o.fleets[0]
	if fl == nil {
		t.Fatal("learning arm has no fleet")
	}
	w0 := fl.Replica(0).Model.FlattenParams(nil)
	for ri := 1; ri < o.Cfg.Shards; ri++ {
		w := fl.Replica(ri).Model.FlattenParams(nil)
		for i := range w0 {
			if math.Float64bits(w[i]) != math.Float64bits(w0[i]) {
				t.Fatalf("replica %d scalar %d differs from replica 0 between rounds", ri, i)
			}
		}
	}
	moved := false
	for i, v := range w0 {
		if v != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("replicas never moved: online learning did not step")
	}
	for i, v := range p.Model.FlattenParams(nil) {
		if v != before[i] {
			t.Fatal("pipeline base model mutated by fleet learning")
		}
	}
	if got := o.LearnedWeights("chatfuzz-learn"); len(got) != len(w0) {
		t.Errorf("LearnedWeights returned %d scalars, want %d", len(got), len(w0))
	}
	if o.LearnedWeights("randinst") != nil {
		t.Error("LearnedWeights returned weights for a non-learning arm")
	}
}

// TestLearningResumeBitIdentity is the acceptance property: pausing a
// learning+detecting fleet mid-campaign and resuming — with a freshly
// rebuilt pipeline, as a new process would — must reproduce the
// uninterrupted run's trajectory, detector reports, and merged model
// weights bit-for-bit.
func TestLearningResumeBitIdentity(t *testing.T) {
	cfg := Config{Shards: 2, BatchSize: 4, Seed: 19, Detect: true}

	pFull := learnPipeline()
	full, err := New(cfg, newRocket, learnArms(pFull)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer full.Close()
	full.RunRounds(6)

	pHalf := learnPipeline()
	half, err := New(cfg, newRocket, learnArms(pHalf)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	half.RunRounds(3)
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	half.Close()

	pRes := learnPipeline() // a new process: same training, new memory
	resumed, err := ResumeMixed(&buf, []func() rtl.DUT{newRocket}, learnArms(pRes)...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer resumed.Close()
	resumed.RunRounds(3)

	want, got := full.Trajectory(), resumed.Trajectory()
	if len(got) != len(want) {
		t.Fatalf("trajectory has %d points after resume, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d differs after resume: got %+v, want %+v", i, got[i], want[i])
		}
	}

	ww, gw := full.LearnedWeights("chatfuzz-learn"), resumed.LearnedWeights("chatfuzz-learn")
	if len(ww) != len(gw) {
		t.Fatalf("weights have %d scalars after resume, want %d", len(gw), len(ww))
	}
	for i := range ww {
		if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) {
			t.Fatalf("weight scalar %d not bit-identical after resume: %x vs %x",
				i, math.Float64bits(gw[i]), math.Float64bits(ww[i]))
		}
	}

	for s := 0; s < cfg.Shards; s++ {
		fr, rr := full.Shard(s).Det.Report(), resumed.Shard(s).Det.Report()
		if fr != rr {
			t.Errorf("shard %d detector report differs after resume:\n%s\nvs\n%s", s, rr, fr)
		}
		if resumed.Shard(s).Det.Tests != full.Shard(s).Det.Tests {
			t.Errorf("shard %d detector saw %d tests after resume, want %d (cumulative across the pause)",
				s, resumed.Shard(s).Det.Tests, full.Shard(s).Det.Tests)
		}
	}
}

// TestLearningVsFrozenAtEqualVirtualTime: the same two-shard detecting
// fleet, once with the online-learning LLM arm and once with the
// frozen one, compared at the virtual time both reached. On the
// untrained test-scale pipeline, 384 tests are too few for learning to
// pay off (the frozen arm leads by eight bins), so both coverages are
// pinned exactly: a change to either loop moves them.
func TestLearningVsFrozenAtEqualVirtualTime(t *testing.T) {
	run := func(llm func(*core.Pipeline) ArmSpec) *Orchestrator {
		p := learnPipeline()
		o, err := New(Config{Shards: 2, BatchSize: 16, Seed: 1, Detect: true}, newRocket,
			llm(p), TheHuzzArm(p.Cfg.BodyInstrs))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(o.Close)
		if err := o.RunTests(384); err != nil {
			t.Fatalf("RunTests: %v", err)
		}
		return o
	}
	learn, frozen := run(LearningLLMArm), run(LLMArm)
	h := min(learn.Hours(), frozen.Hours())
	const wantLearn, wantFrozen = 71.19700748129675, 72.19451371571073
	if lc, fc := learn.CoverageAt(h), frozen.CoverageAt(h); lc != wantLearn || fc != wantFrozen {
		t.Errorf("coverage at %v virtual hours: learn %v%%, frozen %v%%; want %v%%, %v%%",
			h, lc, fc, wantLearn, wantFrozen)
	}
}

// TestResumeRejectsCheckpointWithoutLearnWeights: arm signatures can
// match while the Learn section is missing only on a corrupted or
// hand-edited file — that must fail loudly, not silently restart the
// arm from offline weights.
func TestResumeRejectsCheckpointWithoutLearnWeights(t *testing.T) {
	p := learnPipeline()
	o, err := New(Config{Shards: 2, BatchSize: 4, Seed: 23}, newRocket, learnArms(p)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	o.RunRounds(1)
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	o.Close()

	mangled := bytes.Replace(buf.Bytes(), []byte(`"Learn"`), []byte(`"Lrn__"`), 1)
	if bytes.Equal(mangled, buf.Bytes()) {
		t.Fatal("checkpoint has no Learn section to mangle")
	}
	if _, err := ResumeMixed(bytes.NewReader(mangled), []func() rtl.DUT{newRocket}, learnArms(learnPipeline())...); err == nil {
		t.Error("Resume accepted a learning-arm checkpoint without weights")
	}
}

// TestCheckMismatchWeight: the one rule a new fleet's mismatch weight
// passes, which the CLI and the farm's submit path both apply.
func TestCheckMismatchWeight(t *testing.T) {
	for _, tc := range []struct {
		weight float64
		detect bool
		ok     bool
	}{
		{0, false, true},
		{0, true, true},
		{0.5, true, true},
		{1, true, true},
		{0.5, false, false},
		{1, false, false},
		{1.5, true, false},
		{-0.1, true, false},
		{math.NaN(), true, false},
		{math.Inf(1), true, false},
	} {
		if err := CheckMismatchWeight(tc.weight, tc.detect); (err == nil) != tc.ok {
			t.Errorf("CheckMismatchWeight(%v, detect=%v) = %v, want ok=%v", tc.weight, tc.detect, err, tc.ok)
		}
	}
}

// TestRewardMixesMismatchRate: table-driven check of the bandit reward
// blend behind Config.MismatchWeight.
func TestRewardMixesMismatchRate(t *testing.T) {
	cases := []struct {
		name    string
		weight  float64
		covRate float64
		misRate float64
		detect  bool
		want    float64
	}{
		{"coverage only by default", 0, 60, 1e9, true, 0.5},
		{"pure mismatch at weight 1", 1, 1e9, 3, true, 0.5},
		{"even blend", 0.5, 60, 3, true, 0.5},
		{"zero rates", 0.5, 0, 0, true, 0},
		{"weight clamped to 1", 5, 0, 3, true, 0.5},
		{"no-op without detection", 0.5, 60, 3, false, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{MismatchWeight: tc.weight, Detect: tc.detect}
			if got := cfg.reward(tc.covRate, tc.misRate); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("reward(%v, %v) = %v, want %v", tc.covRate, tc.misRate, got, tc.want)
			}
		})
	}
}
