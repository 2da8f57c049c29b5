// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§V) on the simulated platform,
// at a configurable scale. Each Suite method's comment names the
// experiment id (E1–E8, A1–A3) it renders, and every rendered row
// prints the paper's value (PAPER.md names the source) next to the
// measured one; cmd/fuzz-bench/README.md lists the -exp names that
// select them. Every experiment runs its generator as the one arm of a
// one-shard internal/campaign fleet, the engine that campd and the
// ledger run.
//
//chatfuzz:deterministic package
package exp

import (
	"fmt"
	"io"
	"os"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// Scale sizes a reproduction run. The paper's full scale (199 K tests,
// 24-hour campaigns, 500 K-instruction corpus) is reachable with
// Paper(); Quick() keeps the whole suite laptop-sized while preserving
// every trend.
type Scale struct {
	Name string

	Train core.PipelineConfig

	BatchSize int
	// E2: coverage at an equal, small test budget (paper: 1 800).
	TestsEqual int
	// E3: coverage at a large test budget (paper: 199 000).
	TestsLarge int
	// E5: BOOM campaign test budget (paper: ~49 virtual minutes).
	BoomTests int
}

// Quick returns the laptop-scale configuration.
func Quick() Scale {
	cfg := core.DefaultPipelineConfig()
	return Scale{
		Name:       "quick",
		Train:      cfg,
		BatchSize:  16,
		TestsEqual: 1200,
		TestsLarge: 6000,
		BoomTests:  1200,
	}
}

// Paper returns the full-scale configuration, for cmd/fuzz-bench
// -scale=paper. It has never run to completion, so its cost is
// unmeasured; Quick is the scale that has run end to end.
func Paper() Scale {
	cfg := core.DefaultPipelineConfig()
	cfg.Corpus.Functions = 18000 // ~500 K instructions
	cfg.PretrainSteps = 2000
	cfg.CleanupSteps = 300
	cfg.CoverageSteps = 100
	return Scale{
		Name:       "paper",
		Train:      cfg,
		BatchSize:  16,
		TestsEqual: 1800,
		TestsLarge: 199000,
		BoomTests:  1800,
	}
}

// Campaign is one fuzzing run's full trajectory.
type Campaign struct {
	// Trajectory has one point per round: the fleet's merged
	// trajectory (campaign.Orchestrator.Trajectory).
	Trajectory []campaign.ProgressPoint
	// Detector is the shard's mismatch detector (nil without detection).
	Detector *mismatch.Detector
}

// shards is every experiment's fleet size. Fleet virtual time is the
// maximum over shard clocks, so one shard keeps E4 and E5 in the
// paper's one-simulator minutes and E6 on one detector; the fleet's
// engine pool fills the cores that shard leaves idle.
const shards = 1

func newRocket() rtl.DUT { return rocket.New() }

func newBoom() rtl.DUT { return boom.New() }

// run fuzzes newDUT with arm for tests tests on a one-shard fleet whose
// generator seeds derive from seed.
func (s *Suite) run(arm campaign.ArmSpec, newDUT func() rtl.DUT, tests int, seed int64, detect bool) Campaign {
	o, err := campaign.New(campaign.Config{
		Shards:    shards,
		BatchSize: s.Scale.BatchSize,
		Seed:      seed,
		Detect:    detect,
	}, newDUT, arm)
	if err != nil {
		panic(err) // one named arm and one DUT: a fleet this shape always builds
	}
	defer o.Close()
	if err := o.RunTests(tests); err != nil {
		panic(err)
	}
	return Campaign{Trajectory: o.Trajectory(), Detector: o.Shard(0).Det}
}

// Final returns the campaign's last trajectory point: its final
// coverage, test count and virtual hours (zero before any round).
func (c Campaign) Final() campaign.ProgressPoint {
	if len(c.Trajectory) == 0 {
		return campaign.ProgressPoint{}
	}
	return c.Trajectory[len(c.Trajectory)-1]
}

// At returns the campaign coverage after n tests.
func (c Campaign) At(n int) float64 {
	last := 0.0
	for _, pt := range c.Trajectory {
		if pt.Tests > n {
			break
		}
		last = pt.Coverage
	}
	return last
}

// HoursTo returns the virtual hours at which coverage first reached
// pct (-1 if never).
func (c Campaign) HoursTo(pct float64) float64 {
	for _, pt := range c.Trajectory {
		if pt.Coverage >= pct {
			return pt.Hours
		}
	}
	return -1
}

// Suite runs the complete reproduction and holds every result.
type Suite struct {
	Scale Scale
	Log   io.Writer

	Pipeline *core.Pipeline
	ChatFuzz Campaign // Rocket campaign (drives E1–E4, E6)
	TheHuzz  Campaign
	Boom     Campaign // E5
}

// NewSuite prepares a suite (no work done yet).
func NewSuite(sc Scale, log io.Writer) *Suite {
	if log == nil {
		log = os.Stdout
	}
	return &Suite{Scale: sc, Log: log}
}

func (s *Suite) logf(format string, args ...any) { fmt.Fprintf(s.Log, format+"\n", args...) }

// TrainedPipeline trains (or returns the cached) three-step pipeline.
// The checkpoint avoids retraining across experiments in one process.
func (s *Suite) TrainedPipeline() *core.Pipeline {
	if s.Pipeline != nil {
		return s.Pipeline
	}
	cfg := s.Scale.Train
	cfg.Log = s.Log
	s.logf("== training pipeline (%s scale) ==", s.Scale.Name)
	p := core.NewPipeline(cfg)
	p.Pretrain()
	s.logf("  invalid rate after step 1: %.1f%%", 100*p.InvalidRate(20))
	p.Cleanup()
	s.logf("  invalid rate after step 2: %.1f%%", 100*p.InvalidRate(20))
	p.CoverageTune(rocket.New())
	s.Pipeline = p
	return p
}

// RunRocketCampaigns executes the ChatFuzz and TheHuzz Rocket
// campaigns that experiments E1–E4 and E6 are derived from.
func (s *Suite) RunRocketCampaigns() {
	p := s.TrainedPipeline()

	s.logf("== ChatFuzz campaign on Rocket (%d tests) ==", s.Scale.TestsLarge)
	s.ChatFuzz = s.run(campaign.LearningLLMArm(p), newRocket, s.Scale.TestsLarge, 101, true)
	s.logFinal(s.ChatFuzz)

	s.logf("== TheHuzz campaign on Rocket (%d tests) ==", s.Scale.TestsLarge)
	s.TheHuzz = s.run(campaign.TheHuzzArm(p.Cfg.BodyInstrs), newRocket, s.Scale.TestsLarge, 102, false)
	s.logFinal(s.TheHuzz)
}

func (s *Suite) logFinal(c Campaign) {
	end := c.Final()
	s.logf("  final %.2f%% after %d tests (%.2f virtual hours)", end.Coverage, end.Tests, end.Hours)
}

// Fig2 renders the coverage-over-time series (experiment E1).
func (s *Suite) Fig2(w io.Writer) {
	fmt.Fprintf(w, "\n-- Figure 2: condition coverage over time, RocketCore --\n")
	fmt.Fprintf(w, "%-10s %12s %12s\n", "hours", "TheHuzz %", "ChatFuzz %")
	maxH := max(s.ChatFuzz.Final().Hours, s.TheHuzz.Final().Hours)
	steps := 16
	for i := 0; i <= steps; i++ {
		h := maxH * float64(i) / float64(steps)
		fmt.Fprintf(w, "%-10.2f %12.2f %12.2f\n", h, coverageAtHours(s.TheHuzz, h), coverageAtHours(s.ChatFuzz, h))
	}
}

func coverageAtHours(c Campaign, h float64) float64 {
	last := 0.0
	for _, pt := range c.Trajectory {
		if pt.Hours > h {
			break
		}
		last = pt.Coverage
	}
	return last
}

// EqualBudget renders experiment E2 (coverage at the equal small
// budget) and E3 (coverage at the large budget).
func (s *Suite) EqualBudget(w io.Writer) (chatEq, huzzEq, chatLg, huzzLg float64) {
	chatEq, huzzEq = s.ChatFuzz.At(s.Scale.TestsEqual), s.TheHuzz.At(s.Scale.TestsEqual)
	chatLg, huzzLg = s.ChatFuzz.Final().Coverage, s.TheHuzz.Final().Coverage
	fmt.Fprintf(w, "\n-- Coverage at equal test budgets (paper §V-A) --\n")
	fmt.Fprintf(w, "%-24s %10s %10s\n", "budget", "ChatFuzz", "TheHuzz")
	fmt.Fprintf(w, "%-24s %9.2f%% %9.2f%%   (paper: 74.96%% vs 67.4%% @1.8K)\n",
		fmt.Sprintf("%d tests", s.Scale.TestsEqual), chatEq, huzzEq)
	fmt.Fprintf(w, "%-24s %9.2f%% %9.2f%%   (paper: 79.14%% vs 76.7%% @199K)\n",
		fmt.Sprintf("%d tests", s.ChatFuzz.Final().Tests), chatLg, huzzLg)
	return
}

// Speedup renders experiment E4: the time for TheHuzz to reach
// ChatFuzz's equal-budget coverage level, and the resulting factor
// (paper: 52 min vs ~30 h, 34.6×).
func (s *Suite) Speedup(w io.Writer) (factor float64) {
	target := s.ChatFuzz.At(s.Scale.TestsEqual)
	tChat := s.ChatFuzz.HoursTo(target)
	tHuzz := s.TheHuzz.HoursTo(target)
	fmt.Fprintf(w, "\n-- Time to reach %.2f%% condition coverage (paper E4) --\n", target)
	if tChat > 0 {
		fmt.Fprintf(w, "ChatFuzz: %6.2f h (%.0f min)\n", tChat, tChat*60)
	}
	if tHuzz > 0 {
		fmt.Fprintf(w, "TheHuzz:  %6.2f h (%.0f min)\n", tHuzz, tHuzz*60)
		factor = tHuzz / tChat
		fmt.Fprintf(w, "speedup:  %.1fx   (paper: 34.6x)\n", factor)
	} else {
		end := s.TheHuzz.Final()
		factor = end.Hours / tChat
		fmt.Fprintf(w, "TheHuzz:  never within its %d-test budget (> %.2f h) -> speedup > %.1fx (paper: 34.6x)\n",
			end.Tests, end.Hours, factor)
	}
	return factor
}

// RunBoom executes experiment E5 (BOOM coverage).
func (s *Suite) RunBoom(w io.Writer) {
	p := s.TrainedPipeline()
	s.logf("== ChatFuzz campaign on BOOM (%d tests) ==", s.Scale.BoomTests)
	s.Boom = s.run(campaign.LearningLLMArm(p), newBoom, s.Scale.BoomTests, 103, false)
	end := s.Boom.Final()
	fmt.Fprintf(w, "\n-- BOOM condition coverage (paper E5) --\n")
	fmt.Fprintf(w, "ChatFuzz on BOOM: %.2f%% after %d tests, %.0f virtual minutes (paper: 97.02%% in 49 min)\n",
		end.Coverage, end.Tests, end.Hours*60)
}

// Findings renders experiment E6 from the ChatFuzz campaign's
// detector.
func (s *Suite) FindingsReport(w io.Writer) {
	fmt.Fprintf(w, "\n-- Findings (paper §V-B) --\n")
	if s.ChatFuzz.Detector == nil {
		fmt.Fprintf(w, "campaign was run without detection\n")
		return
	}
	fmt.Fprint(w, s.ChatFuzz.Detector.Report())
}

// TrainingCurves renders experiments E7/E8 from the pipeline history.
func (s *Suite) TrainingCurves(w io.Writer) {
	p := s.TrainedPipeline()
	fmt.Fprintf(w, "\n-- Training step 2: PPO vs disassembler reward, Eq. 1 (E7) --\n")
	printStats(w, p.Hist.Cleanup)
	fmt.Fprintf(w, "\n-- Training step 3: PPO vs coverage reward (E8) --\n")
	printStats(w, p.Hist.Coverage)
}

func printStats(w io.Writer, st []core.PPOStats) {
	fmt.Fprintf(w, "%6s %12s %10s %12s %12s\n", "step", "mean reward", "KL", "policy loss", "value loss")
	for i, s := range st {
		if len(st) > 12 && i%(len(st)/12+1) != 0 && i != len(st)-1 {
			continue
		}
		fmt.Fprintf(w, "%6d %12.3f %10.4f %12.4f %12.4f\n", i, s.MeanReward, s.MeanKL, s.PolicyLoss, s.ValueLoss)
	}
}

// AblationNoCleanup executes ablation A1: a pipeline trained without
// step 2 generates more illegal instructions and fuzzes worse (the
// paper's motivation for the cleanup stage: "avoid unnecessary CPU
// simulation of bad/malformed data").
func (s *Suite) AblationNoCleanup(w io.Writer, tests int) {
	full := s.TrainedPipeline()

	cfg := s.Scale.Train
	cfg.CleanupSteps = 0
	cfg.Log = nil
	s.logf("== ablation A1: training without step 2 ==")
	noClean := core.NewPipeline(cfg)
	noClean.Pretrain()

	invFull, invNo := full.InvalidRate(30), noClean.InvalidRate(30)

	cFull := s.run(campaign.LLMArm(full), newRocket, tests, 106, false)
	cNo := s.run(campaign.LLMArm(noClean), newRocket, tests, 106, false)

	fmt.Fprintf(w, "\n-- Ablation A1: dropping training step 2 (cleanup) --\n")
	fmt.Fprintf(w, "%-18s %14s %16s\n", "variant", "invalid rate", "coverage@"+fmt.Sprint(tests))
	fmt.Fprintf(w, "%-18s %13.1f%% %15.2f%%\n", "full pipeline", 100*invFull, cFull.At(tests))
	fmt.Fprintf(w, "%-18s %13.1f%% %15.2f%%\n", "no cleanup", 100*invNo, cNo.At(tests))
}

// AblationReward executes ablation A2: the paper's three-term coverage
// reward versus an incremental-only variant. Both learn from the same
// trained weights, each on its own replica.
func (s *Suite) AblationReward(w io.Writer, tests int) {
	p := s.TrainedPipeline()
	inc := *p // the learning arm reads its reward shaping from Cfg.Weights
	inc.Cfg.Weights = core.IncrementalOnlyWeights()

	cDefault := s.run(campaign.LearningLLMArm(p), newRocket, tests, 107, false)
	cInc := s.run(campaign.LearningLLMArm(&inc), newRocket, tests, 107, false)

	fmt.Fprintf(w, "\n-- Ablation A2: coverage-reward shaping --\n")
	fmt.Fprintf(w, "%-28s %8.2f%%\n", "paper reward (3 terms)", cDefault.At(tests))
	fmt.Fprintf(w, "%-28s %8.2f%%\n", "incremental-only reward", cInc.At(tests))
}

// RunBaselines executes ablation A3: TheHuzz vs random regression vs
// raw random at the equal budget.
func (s *Suite) RunBaselines(w io.Writer) {
	n := s.Scale.TestsEqual
	body := s.Scale.Train.BodyInstrs
	rv := s.run(campaign.RandInstArm(body), newRocket, n, 104, false)
	rr := s.run(campaign.RandFuzzArm(body), newRocket, n, 105, false)
	fmt.Fprintf(w, "\n-- Ablation A3: baseline generators at %d tests --\n", n)
	fmt.Fprintf(w, "%-22s %8.2f%%\n", "ChatFuzz", s.ChatFuzz.At(n))
	fmt.Fprintf(w, "%-22s %8.2f%%\n", "TheHuzz", s.TheHuzz.At(n))
	fmt.Fprintf(w, "%-22s %8.2f%%\n", "random regression", rv.At(n))
	fmt.Fprintf(w, "%-22s %8.2f%%\n", "random raw words", rr.At(n))
}
