package exp

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

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

func TestSuiteEndToEnd(t *testing.T) {
	var log bytes.Buffer
	s := NewSuite(tinyScale(), &log)
	s.RunRocketCampaigns()

	if s.ChatFuzz.Tests < 128 || s.TheHuzz.Tests < 128 {
		t.Fatalf("campaigns too short: %d / %d", s.ChatFuzz.Tests, s.TheHuzz.Tests)
	}
	if s.ChatFuzz.Final <= 0 || s.TheHuzz.Final <= 0 {
		t.Fatal("campaigns recorded no coverage")
	}

	var out bytes.Buffer
	s.Fig2(&out)
	if !strings.Contains(out.String(), "Figure 2") {
		t.Error("Fig2 output missing header")
	}

	out.Reset()
	chatEq, huzzEq, chatLg, huzzLg := s.EqualBudget(&out)
	if chatEq <= 0 || huzzEq <= 0 || chatLg < chatEq || huzzLg < huzzEq {
		t.Errorf("budget table inconsistent: %v %v %v %v", chatEq, huzzEq, chatLg, huzzLg)
	}

	out.Reset()
	s.Speedup(&out)
	if !strings.Contains(out.String(), "speedup") {
		t.Errorf("speedup output: %q", out.String())
	}

	out.Reset()
	s.FindingsReport(&out)
	if !strings.Contains(out.String(), "mismatch detection") {
		t.Error("findings report missing")
	}

	out.Reset()
	s.TrainingCurves(&out)
	if !strings.Contains(out.String(), "Eq. 1") {
		t.Error("training curves missing")
	}

	out.Reset()
	s.RunBoom(&out)
	if !strings.Contains(out.String(), "BOOM condition coverage") || s.Boom.Final <= 0 {
		t.Errorf("BOOM campaign: %.2f%%, output %q", s.Boom.Final, out.String())
	}

	out.Reset()
	s.AblationNoCleanup(&out, 32)
	wantRows(t, out.String(), "Ablation A1", "full pipeline", "no cleanup")

	out.Reset()
	s.AblationReward(&out, 32)
	wantRows(t, out.String(), "Ablation A2", "paper reward", "incremental-only reward")

	out.Reset()
	s.RunBaselines(&out)
	wantRows(t, out.String(), "Ablation A3", "random regression", "random raw words")
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
	c := Campaign{Progress: []core.ProgressPoint{
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
	c := Campaign{Progress: []core.ProgressPoint{
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
