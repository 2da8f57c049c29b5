package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/ml/nn"
)

// tinyScale returns a configuration small enough for unit tests while
// exercising the whole suite plumbing.
func tinyScale() Scale {
	cfg := core.DefaultPipelineConfig()
	cfg.Corpus.Functions = 200
	cfg.Model = nn.Config{Ctx: 48, Dim: 32, Heads: 2, Layers: 1}
	cfg.MaxVocab = 512
	cfg.PretrainSteps = 40
	cfg.CleanupSteps = 4
	cfg.CoverageSteps = 2
	cfg.CoverageBatch = 4
	return Scale{
		Name:       "tiny",
		Train:      cfg,
		BatchSize:  8,
		TestsEqual: 64,
		TestsLarge: 128,
		BoomTests:  64,
	}
}

// goldenSuiteTables is the SHA-256 of every table the tiny suite
// renders, in TestGoldenSuiteTables' order. Any change to an
// experiment's numbers moves it: a seed, a budget, a trained weight, a
// simulated bin.
const goldenSuiteTables = "62eb420a47f8e9ec5ee48d9d66cce6024e4d43c56a0d4d03e308f80ad4fa3a60"

// TestGoldenSuiteTables runs the whole suite once at tiny scale, checks
// that each table is well formed, and pins the bytes of all of them.
// CI runs it under GOMAXPROCS=1 and 4.
func TestGoldenSuiteTables(t *testing.T) {
	var log bytes.Buffer
	s := NewSuite(tinyScale(), &log)
	s.RunRocketCampaigns()

	if s.ChatFuzz.Final().Tests < 128 || s.TheHuzz.Final().Tests < 128 {
		t.Fatalf("campaigns too short: %d / %d", s.ChatFuzz.Final().Tests, s.TheHuzz.Final().Tests)
	}
	if s.ChatFuzz.Final().Coverage <= 0 || s.TheHuzz.Final().Coverage <= 0 {
		t.Fatal("campaigns recorded no coverage")
	}

	// table renders one experiment and appends it to all.
	var all bytes.Buffer
	table := func(render func(io.Writer)) string {
		var out bytes.Buffer
		render(&out)
		all.Write(out.Bytes())
		return out.String()
	}

	if !strings.Contains(table(s.Fig2), "Figure 2") {
		t.Error("Fig2 output missing header")
	}

	var chatEq, huzzEq, chatLg, huzzLg float64
	table(func(w io.Writer) { chatEq, huzzEq, chatLg, huzzLg = s.EqualBudget(w) })
	if chatEq <= 0 || huzzEq <= 0 || chatLg < chatEq || huzzLg < huzzEq {
		t.Errorf("budget table inconsistent: %v %v %v %v", chatEq, huzzEq, chatLg, huzzLg)
	}

	if out := table(func(w io.Writer) { s.Speedup(w) }); !strings.Contains(out, "speedup") {
		t.Errorf("speedup output: %q", out)
	}
	if !strings.Contains(table(s.FindingsReport), "mismatch detection") {
		t.Error("findings report missing")
	}
	if !strings.Contains(table(s.TrainingCurves), "Eq. 1") {
		t.Error("training curves missing")
	}
	if out := table(s.RunBoom); !strings.Contains(out, "BOOM condition coverage") || s.Boom.Final().Coverage <= 0 {
		t.Errorf("BOOM campaign: %.2f%%, output %q", s.Boom.Final().Coverage, out)
	}
	wantRows(t, table(func(w io.Writer) { s.AblationNoCleanup(w, 32) }), "Ablation A1", "full pipeline", "no cleanup")
	wantRows(t, table(func(w io.Writer) { s.AblationReward(w, 32) }), "Ablation A2", "paper reward", "incremental-only reward")
	wantRows(t, table(s.RunBaselines), "Ablation A3", "random regression", "random raw words")

	sum := sha256.Sum256(all.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSuiteTables {
		t.Errorf("suite tables sha256 = %s, want %s; the tables:\n%s", got, goldenSuiteTables, all.String())
	}
}

// TestExperimentsBitExactAcrossOrder: an experiment's table does not
// depend on which experiments ran before it in the suite. Learning arms
// train replicas, so the Rocket campaigns leave the trained weights bit
// for bit as they were, and E5 and A2 render the same bytes on a fresh
// suite as after them. The second suite reuses the first one's trained
// pipeline: a weight that E5 or A2 moved would change its tables too.
// CI runs it under GOMAXPROCS=1 and 4.
func TestExperimentsBitExactAcrossOrder(t *testing.T) {
	boomAndA2 := func(s *Suite) (boom, a2 string) {
		var out bytes.Buffer
		s.RunBoom(&out)
		boom = out.String()
		out.Reset()
		s.AblationReward(&out, 32)
		return boom, out.String()
	}
	fresh := NewSuite(tinyScale(), io.Discard)
	freshBoom, freshA2 := boomAndA2(fresh)

	s := NewSuite(tinyScale(), io.Discard)
	s.Pipeline = fresh.Pipeline // one training serves both suites
	before := s.Pipeline.Model.FlattenParams(nil)
	s.RunRocketCampaigns()
	after := s.Pipeline.Model.FlattenParams(nil)
	moved := 0
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("RunRocketCampaigns moved %d of %d trained model weights", moved, len(before))
	}

	boom, a2 := boomAndA2(s)
	if boom != freshBoom {
		t.Errorf("E5 after the Rocket campaigns:\n%s\nfresh suite:\n%s", boom, freshBoom)
	}
	if a2 != freshA2 {
		t.Errorf("A2 after the Rocket campaigns:\n%s\nfresh suite:\n%s", a2, freshA2)
	}
}

// wantRows checks that out has the section header and, for each label,
// a row whose last column is a positive percentage.
func wantRows(t *testing.T, out, header string, labels ...string) {
	t.Helper()
	if !strings.Contains(out, header) {
		t.Errorf("output missing %q header:\n%s", header, out)
	}
	for _, label := range labels {
		pct := -1.0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); strings.HasPrefix(line, label) && len(f) > 0 {
				pct, _ = strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
			}
		}
		if pct <= 0 {
			t.Errorf("%s: row %q has no positive coverage:\n%s", header, label, out)
		}
	}
}

func TestCampaignQueries(t *testing.T) {
	c := Campaign{Trajectory: []campaign.ProgressPoint{
		{Tests: 10, Hours: 0.1, Coverage: 30},
		{Tests: 20, Hours: 0.2, Coverage: 50},
		{Tests: 30, Hours: 0.3, Coverage: 60},
	}}
	if got := c.At(25); got != 50 {
		t.Errorf("At(25) = %v, want 50", got)
	}
	if got := c.HoursTo(55); got != 0.3 {
		t.Errorf("HoursTo(55) = %v, want 0.3", got)
	}
	if got := c.HoursTo(99); got != -1 {
		t.Errorf("HoursTo(99) = %v, want -1", got)
	}
	if got := c.Final(); got != c.Trajectory[2] {
		t.Errorf("Final() = %+v, want the last point", got)
	}
	if got := (Campaign{}).Final(); got != (campaign.ProgressPoint{}) {
		t.Errorf("Final() of an empty campaign = %+v, want the zero point", got)
	}
}

func TestScalesDiffer(t *testing.T) {
	q, p := Quick(), Paper()
	if p.TestsLarge <= q.TestsLarge || p.Train.Corpus.Functions <= q.Train.Corpus.Functions {
		t.Error("paper scale must exceed quick scale")
	}
	if q.TestsEqual <= 0 || q.BoomTests <= 0 {
		t.Error("quick scale has zero budgets")
	}
}

func TestCoverageAtHours(t *testing.T) {
	c := Campaign{Trajectory: []campaign.ProgressPoint{
		{Hours: 0.1, Coverage: 10},
		{Hours: 0.5, Coverage: 40},
	}}
	if got := coverageAtHours(c, 0.3); got != 10 {
		t.Errorf("coverageAtHours(0.3) = %v", got)
	}
	if got := coverageAtHours(c, 1.0); got != 40 {
		t.Errorf("coverageAtHours(1.0) = %v", got)
	}
}
