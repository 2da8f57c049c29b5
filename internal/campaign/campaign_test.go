package campaign

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

const testBody = 16

func testArms() []ArmSpec {
	return []ArmSpec{TheHuzzArm(testBody), RandInstArm(testBody), RandFuzzArm(testBody)}
}

func newRocket() rtl.DUT { return rocket.New() }

func mustNew(t *testing.T, cfg Config) *Orchestrator {
	t.Helper()
	o, err := New(cfg, newRocket, testArms()...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return o
}

// TestFourShardsBeatSingleCampaignAtEqualBudget is the headline
// property: a 4-shard fleet spending the same total test budget as one
// TheHuzz campaign reaches at least the single campaign's merged
// coverage. Single-campaign coverage has high seed variance (~65-72%
// at this budget), so the fleet is compared against the median over
// five single-campaign seeds rather than one lucky or unlucky draw;
// everything here is deterministic, the median just removes the
// arbitrariness of picking one comparison seed.
func TestFourShardsBeatSingleCampaignAtEqualBudget(t *testing.T) {
	const budget = 640
	o, err := New(Config{Shards: 4, BatchSize: 16, Seed: 1}, newRocket,
		TheHuzzArm(testBody), RandInstArm(testBody))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	o.RunTests(budget)
	if o.Tests() < budget {
		t.Fatalf("fleet ran %d tests, want >= %d", o.Tests(), budget)
	}

	var singles []float64
	for seed := int64(1); seed <= 5; seed++ {
		single := testShard(t, rocket.New(), 16, false, false)
		runBatches(single, thehuzz.New(seed, testBody), budget/16)
		singles = append(singles, single.Calc.Total().Percent())
	}
	sort.Float64s(singles)
	median := singles[len(singles)/2]

	if o.Coverage() < median {
		t.Errorf("merged fleet coverage %.2f%% < median single-campaign %.2f%% at equal budget %d (singles: %v)",
			o.Coverage(), median, budget, singles)
	}
}

func TestReportExposesBanditPulls(t *testing.T) {
	const shards, rounds = 4, 6
	o := mustNew(t, Config{Shards: shards, BatchSize: 8, Seed: 2})
	o.RunRounds(rounds)

	rep := o.Report()
	if len(rep.Arms) != 3 {
		t.Fatalf("report has %d arms, want 3", len(rep.Arms))
	}
	total := 0
	for _, a := range rep.Arms {
		if a.Pulls == 0 {
			t.Errorf("arm %q was never pulled: UCB1 must try every arm", a.Name)
		}
		if a.MeanReward < 0 || a.MeanReward > 1 {
			t.Errorf("arm %q mean reward %.3f outside [0,1]", a.Name, a.MeanReward)
		}
		total += a.Pulls
	}
	if total != shards*rounds {
		t.Errorf("pulls sum to %d, want shards*rounds = %d", total, shards*rounds)
	}
	s := rep.String()
	for _, name := range []string{"thehuzz", "randinst", "randfuzz"} {
		if !strings.Contains(s, name) {
			t.Errorf("report string missing arm %q:\n%s", name, s)
		}
	}
}

func TestTrajectoryIsMonotone(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 3})
	o.RunRounds(5)
	traj := o.Trajectory()
	if len(traj) != 5 {
		t.Fatalf("trajectory has %d points, want 5", len(traj))
	}
	for i := 1; i < len(traj); i++ {
		if traj[i].Coverage < traj[i-1].Coverage {
			t.Errorf("coverage decreased at round %d: %.4f -> %.4f", i, traj[i-1].Coverage, traj[i].Coverage)
		}
		if traj[i].Tests <= traj[i-1].Tests {
			t.Errorf("tests not increasing at round %d", i)
		}
		if traj[i].Hours <= traj[i-1].Hours {
			t.Errorf("fleet hours not increasing at round %d", i)
		}
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	a := mustNew(t, Config{Shards: 3, BatchSize: 8, Seed: 7})
	b := mustNew(t, Config{Shards: 3, BatchSize: 8, Seed: 7})
	a.RunRounds(6)
	b.RunRounds(6)
	ta, tb := a.Trajectory(), b.Trajectory()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("round %d differs across identical runs: %+v vs %+v", i, ta[i], tb[i])
		}
	}
}

// TestCheckpointResumeReproducesTrajectory: pausing after 5 rounds and
// resuming must yield a merged trajectory bit-identical to the
// uninterrupted 10-round run, including bandit state.
func TestCheckpointResumeReproducesTrajectory(t *testing.T) {
	cfg := Config{Shards: 4, BatchSize: 8, Seed: 11}

	full := mustNew(t, cfg)
	full.RunRounds(10)
	want := full.Trajectory()

	half := mustNew(t, cfg)
	half.RunRounds(5)
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	resumed, err := ResumeMixed(&buf, []func() rtl.DUT{newRocket}, testArms()...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resumed.RunRounds(5)
	got := resumed.Trajectory()

	if len(got) != len(want) {
		t.Fatalf("trajectory has %d points after resume, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d differs after resume: got %+v, want %+v", i, got[i], want[i])
		}
	}

	fr, rr := full.Report(), resumed.Report()
	for i := range fr.Arms {
		if fr.Arms[i].Pulls != rr.Arms[i].Pulls {
			t.Errorf("arm %q pulls %d after resume, want %d",
				fr.Arms[i].Name, rr.Arms[i].Pulls, fr.Arms[i].Pulls)
		}
		if fr.Arms[i].MeanReward != rr.Arms[i].MeanReward {
			t.Errorf("arm %q mean reward %v after resume, want %v",
				fr.Arms[i].Name, rr.Arms[i].MeanReward, fr.Arms[i].MeanReward)
		}
	}
	if full.Coverage() != resumed.Coverage() {
		t.Errorf("coverage %.4f after resume, want %.4f", resumed.Coverage(), full.Coverage())
	}
}

func TestResumeValidatesArmSpecs(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
	o.RunRounds(2)
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := ResumeMixed(bytes.NewReader(buf.Bytes()), []func() rtl.DUT{newRocket}, RandInstArm(testBody)); err == nil {
		t.Error("Resume accepted a mismatched arm count")
	}
	if _, err := ResumeMixed(bytes.NewReader(buf.Bytes()), []func() rtl.DUT{newRocket},
		RandInstArm(testBody), TheHuzzArm(testBody), RandFuzzArm(testBody)); err == nil {
		t.Error("Resume accepted reordered arm names")
	}
	if _, err := ResumeMixed(bytes.NewReader(buf.Bytes()), []func() rtl.DUT{newRocket},
		TheHuzzArm(testBody+1), RandInstArm(testBody), RandFuzzArm(testBody)); err == nil {
		t.Error("Resume accepted an arm with a different body length: the resumed trajectory would silently diverge")
	}
}

func TestResumeRejectsDifferentDUT(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
	o.RunRounds(1)
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	_, err := ResumeMixed(&buf, []func() rtl.DUT{func() rtl.DUT { return boom.New() }}, testArms()...)
	if err == nil || !strings.Contains(err.Error(), "design") {
		t.Errorf("Resume against a different DUT: err = %v, want per-shard design mismatch", err)
	}
}

func TestReadCheckpointInfo(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
	o.RunRounds(3)
	path := t.TempDir() + "/fleet.json"
	if err := o.CheckpointFile(path); err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	info, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatalf("ReadCheckpointInfo: %v", err)
	}
	if info.Round != 3 || info.Tests != o.Tests() || len(info.Arms) != 3 {
		t.Errorf("info = %+v, want round 3, %d tests, 3 arms", info, o.Tests())
	}
	if _, err := ReadCheckpointInfo(path + ".missing"); err == nil {
		t.Error("ReadCheckpointInfo accepted a missing file")
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}, newRocket); err == nil {
		t.Error("New accepted zero arms")
	}
	if _, err := New(Config{}, newRocket, RandInstArm(8), RandInstArm(8)); err == nil {
		t.Error("New accepted duplicate arm names")
	}
}

// TestLLMArmSchedules wires an (untrained, tiny) pipeline in as an arm
// to exercise the model-backed generation path and its checkpoint
// round trip; model quality is irrelevant to the mechanics.
func TestLLMArmSchedules(t *testing.T) {
	cfg := core.TestPipelineConfig()
	p := core.NewPipeline(cfg)
	arms := []ArmSpec{LLMArm(p), RandInstArm(cfg.BodyInstrs)}

	o, err := New(Config{Shards: 2, BatchSize: 4, Seed: 13}, newRocket, arms...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	o.RunRounds(2)
	rep := o.Report()
	if rep.Arms[0].Name != "chatfuzz" || rep.Arms[0].Pulls == 0 {
		t.Errorf("LLM arm not scheduled: %+v", rep.Arms)
	}

	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	resumed, err := ResumeMixed(&buf, []func() rtl.DUT{newRocket}, arms...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	resumed.RunRounds(1)
	if resumed.Rounds() != 3 {
		t.Errorf("resumed fleet at round %d, want 3", resumed.Rounds())
	}
}

// TestResumeRefusesAnotherModel: an LLM arm's checkpoint records the
// digest of the pipeline model it samples (or, learning, keeps as its
// KL reference). Resume accepts the same pipeline and refuses one
// trained with another seed, although the arm signatures match, naming
// both digests.
func TestResumeRefusesAnotherModel(t *testing.T) {
	trained := func(seed int64) *core.Pipeline {
		cfg := core.TestPipelineConfig()
		cfg.Seed = seed
		cfg.PretrainSteps = 5
		p := core.NewPipeline(cfg)
		p.Pretrain()
		return p
	}
	p, other := trained(1), trained(2)
	for _, arm := range []func(*core.Pipeline) ArmSpec{LLMArm, LearningLLMArm} {
		name := arm(p).Name
		t.Run(name, func(t *testing.T) {
			o, err := New(Config{Shards: 2, BatchSize: 4, Seed: 13}, newRocket, arm(p), RandInstArm(testBody))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer o.Close()
			if err := o.RunRounds(1); err != nil {
				t.Fatalf("RunRounds: %v", err)
			}
			var buf bytes.Buffer
			if err := o.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			r, err := ResumeMixed(bytes.NewReader(buf.Bytes()), []func() rtl.DUT{newRocket}, arm(p), RandInstArm(testBody))
			if err != nil {
				t.Fatalf("Resume under the same pipeline: %v", err)
			}
			r.Close()
			r, err = ResumeMixed(bytes.NewReader(buf.Bytes()), []func() rtl.DUT{newRocket}, arm(other), RandInstArm(testBody))
			if err == nil {
				r.Close()
				t.Fatal("Resume accepted a pipeline trained with another seed")
			}
			for _, want := range []string{modelDigest(p.Model), modelDigest(other.Model)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name digest %s", err, want)
				}
			}
		})
	}
}

// TestArmReseedInPlaceMatchesFresh: every arm without checkpoint state
// reseeds in place, and a used arm, once reseeded, emits what a
// generator freshly seeded alike gives: randinst programs for
// RandInstArm, raw words for RandFuzzArm, and for the two LM arms the
// programs of a new generator around the same model — the pipeline's
// for LLMArm, the shard replica's for LearningLLMArm, whose scored
// rollouts must match as well. A reseed allocates nothing.
func TestArmReseedInPlaceMatchesFresh(t *testing.T) {
	p := learnPipeline()
	inst, fuzz, llm, learn := RandInstArm(testBody), RandFuzzArm(testBody), LLMArm(p), LearningLLMArm(p)
	learner, rep := learn.newLearner(0)
	// The learning arm's rollouts go to a tap instead of its replica, so
	// they can be held to a fresh generator's.
	armTap, freshTap := &rolloutTap{}, &rolloutTap{}
	learner.(*core.LLMGenerator).Sink = armTap
	cases := []struct {
		name  string
		arm   arm
		fresh func(seed int64, n int) []prog.Program
	}{
		{inst.Name, inst.build(0), func(seed int64, n int) []prog.Program {
			rng := rand.New(rand.NewSource(seed))
			out := make([]prog.Program, n)
			for i := range out {
				out[i] = prog.Program{Body: randinst.Program(rng, testBody)}
			}
			return out
		}},
		{fuzz.Name, fuzz.build(0), func(seed int64, n int) []prog.Program {
			g := randfuzz.New(seed, testBody)
			g.Raw = true
			return g.GenerateBatch(n)
		}},
		{llm.Name, llm.build(0), func(seed int64, n int) []prog.Program {
			return core.NewLLMGenerator(p, 0, seed).GenerateBatch(n)
		}},
		{learn.Name, learner, func(seed int64, n int) []prog.Program {
			g := core.NewReplicaGenerator(p, rep.Model, freshTap, 0, seed)
			progs := g.GenerateBatch(n)
			g.Feedback(make([]cov.Scores, n))
			return progs
		}},
	}
	for _, c := range cases {
		a := c.arm
		for _, seed := range []int64{0, 7, -3, 1 << 40, 7} {
			a.GenerateBatch(3)
			a.Reseed(seed)
			got := a.GenerateBatch(5)
			a.Feedback(make([]cov.Scores, 5))
			if want := c.fresh(seed, 5); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: reseeded arm diverges from a fresh generator", c.name, seed)
			}
		}
		if n := testing.AllocsPerRun(10, func() { a.Reseed(9) }); n != 0 {
			t.Errorf("%s: Reseed allocates %.0f times, want 0", c.name, n)
		}
	}
	// The learning arm ran last: its final batch's rollouts.
	if len(armTap.rolls) == 0 || !reflect.DeepEqual(armTap.rolls, freshTap.rolls) {
		t.Fatalf("learning arm: %d rollouts after a reseed, a fresh generator hands over %d, or they differ",
			len(armTap.rolls), len(freshTap.rolls))
	}
}

// rolloutTap is a core.RolloutSink that keeps the last batch handed to it.
type rolloutTap struct{ rolls []*ppo.Rollout }

func (t *rolloutTap) StepRollouts(rolls []*ppo.Rollout) ppo.Stats {
	t.rolls = rolls
	return ppo.Stats{}
}
