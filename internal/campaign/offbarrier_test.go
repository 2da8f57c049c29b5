package campaign

// Tests for the off-barrier learning plane: barrier error propagation,
// the plateau counter behind Config.UpdateBudget, and checkpoint-v4 resume
// taken mid-lag (between a weight publication and the in-flight
// training it overlaps).

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"chatfuzz/internal/cov"
)

// TestBarrierMergeErrorPropagates: a shard whose coverage space has
// diverged from the fleet global (corrupted state — never a healthy
// run) must surface as an error from RunRound, not a panic that kills
// a long-lived fleet process, and must poison subsequent Run* calls.
func TestBarrierMergeErrorPropagates(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 4, Seed: 41})
	defer o.Close()
	if err := o.RunRound(); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	// Swap the fleet-global set for one from a deliberately mismatched
	// space: 33 extra points = 66 extra bins, guaranteeing a different
	// snapshot word count whatever the real design's bin count is.
	bad := cov.NewSpace()
	for i := 0; i < o.globals[o.designs[0]].Space().NumPoints()+33; i++ {
		bad.Define(fmt.Sprintf("p%d", i))
	}
	o.globals[o.designs[0]] = bad.NewSet()

	err := o.RunRound()
	if err == nil {
		t.Fatal("RunRound accepted a diverged coverage space")
	}
	if !strings.Contains(err.Error(), "coverage space diverged") {
		t.Errorf("err = %v, want a coverage-space message", err)
	}
	if err2 := o.RunRound(); err2 != err {
		t.Errorf("poisoned RunRound returned %v, want the original %v", err2, err)
	}
	if err2 := o.RunRounds(3); err2 != err {
		t.Errorf("poisoned RunRounds returned %v, want the original %v", err2, err)
	}
	if err2 := o.RunTests(1 << 20); err2 != err {
		t.Errorf("poisoned RunTests returned %v, want the original %v", err2, err)
	}
}

// TestPlateauOf: the update-budget plateau counter is recomputed from
// the merged trajectory on resume; merged coverage is strictly
// monotone in hit bins, so consecutive equal points mark zero-added
// rounds exactly (round 0 compares against zero coverage).
func TestPlateauOf(t *testing.T) {
	pts := func(cov ...float64) []ProgressPoint {
		out := make([]ProgressPoint, len(cov))
		for i, c := range cov {
			out[i] = ProgressPoint{Coverage: c}
		}
		return out
	}
	cases := []struct {
		name string
		in   []ProgressPoint
		want int
	}{
		{"no rounds", nil, 0},
		{"first round added nothing", pts(0), 1},
		{"first round added", pts(1.5), 0},
		{"tail plateau", pts(1, 2, 2, 2), 2},
		{"growing", pts(1, 2, 3), 0},
		{"all flat from zero", pts(0, 0, 0), 3},
		{"plateau broken then resumed", pts(1, 1, 2, 2), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := plateauOf(tc.in); got != tc.want {
				t.Errorf("plateauOf = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestOffBarrierResumeUnderLag is the checkpoint-v4 acceptance
// property: a learning fleet is checkpointed mid-lag — after a barrier
// published one merge while the next round's training was still
// conceptually in flight — and the resumed run must reproduce the
// uninterrupted run's trajectory, published weights and final
// checkpoint bytes, across shard counts, and with the fleet's pool
// empty (fleetpool=false: no more cores than shards) and staffed
// (fleetpool=true: three spare cores). The uninterrupted reference
// runs on the serial oracle. A single-arm spec keeps every shard on
// the learning arm every round, so the lag is always populated and
// the checkpoint must carry both halves of the stale/fresh weight
// pair.
func TestOffBarrierResumeUnderLag(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, fleetPool := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/fleetpool=%v", shards, fleetPool)
			t.Run(name, func(t *testing.T) {
				if raceEnabled && shards == 16 {
					// The race detector makes the 16-shard learning fleet
					// minutes-slow; the async-training race surface is already
					// covered at 16 shards by TestFleetPoolDeterminismTable,
					// and this test's full table runs in the regular suite.
					t.Skip("16-shard resume table skipped under -race")
				}
				if fleetPool {
					withProcs(t, shards+3)
				} else {
					withProcs(t, min(shards, 2))
				}
				half := 3
				if shards == 16 {
					half = 1 // keep the big fleets cheap; the lag is populated from round 0
				}
				cfg := Config{Shards: shards, BatchSize: 4, Seed: 47}
				arms := func() []ArmSpec { return []ArmSpec{LearningLLMArm(learnPipeline())} }

				// Reference: uninterrupted run on the oracle.
				ocfg := cfg
				ocfg.serial = true
				full, err := New(ocfg, newRocket, arms()...)
				if err != nil {
					t.Fatalf("New full: %v", err)
				}
				defer full.Close()
				if err := full.RunRounds(2 * half); err != nil {
					t.Fatalf("full run: %v", err)
				}
				var fullCkpt bytes.Buffer
				if err := full.Checkpoint(&fullCkpt); err != nil {
					t.Fatalf("full checkpoint: %v", err)
				}

				// Paused production run, checkpointed mid-lag.
				paused, err := New(cfg, newRocket, arms()...)
				if err != nil {
					t.Fatalf("New paused: %v", err)
				}
				if err := paused.RunRounds(half); err != nil {
					t.Fatalf("paused run: %v", err)
				}
				var ckpt bytes.Buffer
				if err := paused.Checkpoint(&ckpt); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
				paused.Close()
				if !bytes.Contains(ckpt.Bytes(), []byte(`"Staged"`)) {
					t.Fatal("mid-lag checkpoint carries no staged weights; the lag was empty")
				}

				resumed, err := Resume(bytes.NewReader(ckpt.Bytes()), newRocket, arms()...)
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				defer resumed.Close()
				if err := resumed.RunRounds(half); err != nil {
					t.Fatalf("resumed run: %v", err)
				}

				want, got := full.Trajectory(), resumed.Trajectory()
				if len(got) != len(want) {
					t.Fatalf("trajectory has %d points after resume, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("point %d differs after mid-lag resume: got %+v, want %+v", i, got[i], want[i])
					}
				}
				ww, gw := full.LearnedWeights("chatfuzz-learn"), resumed.LearnedWeights("chatfuzz-learn")
				if len(ww) == 0 || len(ww) != len(gw) {
					t.Fatalf("weights have %d scalars after resume, want %d", len(gw), len(ww))
				}
				for i := range ww {
					if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) {
						t.Fatalf("weight scalar %d not bit-identical after mid-lag resume", i)
					}
				}
				var resCkpt bytes.Buffer
				if err := resumed.Checkpoint(&resCkpt); err != nil {
					t.Fatalf("resumed checkpoint: %v", err)
				}
				if !bytes.Equal(resCkpt.Bytes(), fullCkpt.Bytes()) {
					t.Error("resumed checkpoint differs from the uninterrupted oracle's")
				}
			})
		}
	}
}

// TestUpdateBudgetResumeBitIdentity: Config.UpdateBudget is scheduling
// semantics — checkpointed via Config, with the plateau counter
// replayed from the merged trajectory — so a budgeted fleet must
// resume bit-identically, and the budget must survive in the
// checkpoint bytes.
func TestUpdateBudgetResumeBitIdentity(t *testing.T) {
	cfg := Config{Shards: 2, BatchSize: 4, Seed: 43, UpdateBudget: 1}

	full, err := New(cfg, newRocket, learnArms(learnPipeline())...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer full.Close()
	if err := full.RunRounds(6); err != nil {
		t.Fatalf("full run: %v", err)
	}

	half, err := New(cfg, newRocket, learnArms(learnPipeline())...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := half.RunRounds(3); err != nil {
		t.Fatalf("half run: %v", err)
	}
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	half.Close()
	if !bytes.Contains(buf.Bytes(), []byte(`"UpdateBudget":1`)) {
		t.Error("checkpoint does not carry UpdateBudget")
	}

	resumed, err := Resume(bytes.NewReader(buf.Bytes()), newRocket, learnArms(learnPipeline())...)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer resumed.Close()
	if resumed.Cfg.UpdateBudget != 1 {
		t.Fatalf("resumed UpdateBudget = %d, want 1", resumed.Cfg.UpdateBudget)
	}
	if err := resumed.RunRounds(3); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	want, got := full.Trajectory(), resumed.Trajectory()
	if len(got) != len(want) {
		t.Fatalf("trajectory has %d points after resume, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d differs after budgeted resume: got %+v, want %+v", i, got[i], want[i])
		}
	}
	ww, gw := full.LearnedWeights("chatfuzz-learn"), resumed.LearnedWeights("chatfuzz-learn")
	for i := range ww {
		if math.Float64bits(ww[i]) != math.Float64bits(gw[i]) {
			t.Fatalf("weight scalar %d not bit-identical after budgeted resume", i)
		}
	}
}
