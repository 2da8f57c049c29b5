// Command fuzz-bench regenerates every table and figure of the
// paper's evaluation (PAPER.md; experiments E1–E8 and ablations
// A1–A3, as named on the internal/exp Suite methods) at the chosen
// scale, printing paper-style rows next to the paper's reported
// values.
//
// The campaign subcommand instead runs the sharded multi-campaign
// orchestrator: N concurrent campaigns with a discounted UCB1 bandit
// scheduling generator arms, with optional checkpoint/resume:
//
//	fuzz-bench campaign -shards 4 -tests 2000 -checkpoint fleet.json
//	fuzz-bench campaign -resume -checkpoint fleet.json -tests 4000
//
// Campaign knobs of note: -dut takes a comma list (e.g.
// "rocket,boom") to run a mixed fleet whose shards alternate designs.
// There is one execution path and nothing to choose: every shard's
// goroutine runs and commits its own rounds, a shared pool of workers
// fills whatever cores the shards leave idle (GOMAXPROCS − shards,
// computed), and learning-arm PPO training always runs on a
// background goroutine overlapped with the next round's simulation.
// -update-budget skips PPO steps while merged coverage is plateaued.
// -probe records and prints per-round scheduler statistics (sim and
// learn barrier waits, committer- and worker-run entries), the
// scale-probe mode for runs like `fuzz-bench campaign -shards 32
// -probe`. Observation flags (-probe
// -probe-json -trace -metrics -telemetry-addr) apply to fresh and
// resumed fleets alike.
// See README.md in this directory for the full campaign flag guide.
//
// The submit, status and watch subcommands are the client side of the
// campaign farm daemon (cmd/campd): submit a job spec to a daemon,
// inspect its queue, and stream a job's round reports:
//
//	fuzz-bench submit -addr 127.0.0.1:8700 -tests 2000 -watch
//	fuzz-bench status -addr 127.0.0.1:8700
//	fuzz-bench watch -addr 127.0.0.1:8700 job-1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/exp"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/telemetry"
)

// campaignMain runs the orchestrator subcommand with its own flag set.
func campaignMain(args []string) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	var (
		shards     = fs.Int("shards", 4, "concurrent campaigns")
		tests      = fs.Int("tests", 2000, "total fleet test budget")
		batch      = fs.Int("batch", 16, "tests per round per shard")
		roundBatch = fs.Int("round-batches", 1, "batches per shard between aggregation barriers (amortises the barrier at coarser bandit feedback)")
		body       = fs.Int("body", 24, "instructions per test")
		seed       = fs.Int64("seed", 1, "campaign seed")
		dutNames   = fs.String("dut", "rocket", "designs under test: comma list of rocket/boom; shards alternate designs")
		probe      = fs.Bool("probe", false, "record and print per-round scheduler statistics: barrier wait, spread, committer-run entries, and the pool's worker-run entries")
		llm        = fs.Bool("llm", false, "train a pipeline and schedule the frozen LLM arm")
		learn      = fs.Bool("learn", false, "train a pipeline and schedule the online-learning LLM arm (per-shard replicas, staged pairwise weight averaging); reports the coverage delta over an identical frozen-LLM fleet")
		budget     = fs.Int("update-budget", 0, "skip learning-arm PPO updates after this many consecutive zero-new-coverage rounds, until coverage moves again (0 = never skip)")
		quickPipe  = fs.Bool("quickpipe", false, "train the tiny test-scale pipeline instead of the default one (smoke runs)")
		mweight    = fs.Float64("mismatch-weight", 0, "bandit reward weight of the mismatch-rate term, 0..1 (enables -detect style steering; requires detection)")
		detect     = fs.Bool("detect", false, "enable differential testing in every shard")
		checkpoint = fs.String("checkpoint", "", "checkpoint file to write after the run")
		resume     = fs.Bool("resume", false, "resume from -checkpoint instead of starting fresh")
		traceFile  = fs.String("trace", "", "write a Chrome trace-event JSON file of the run's spans (open in Perfetto or chrome://tracing); execution-only, trajectories are unaffected")
		metricsF   = fs.String("metrics", "", "write periodic JSONL metrics snapshots to this file (implies -probe); execution-only")
		metricsDt  = fs.Duration("metrics-every", 5*time.Second, "snapshot interval for -metrics")
		telemAddr  = fs.String("telemetry-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060, :0 picks a port)")
		probeJSON  = fs.String("probe-json", "", "dump per-round scheduler probes as JSONL to this file after the run (implies -probe)")
	)
	fs.Parse(args)

	var newDUTs []func() rtl.DUT
	for _, name := range strings.Split(*dutNames, ",") {
		switch strings.TrimSpace(name) {
		case "rocket":
			newDUTs = append(newDUTs, func() rtl.DUT { return rocket.New() })
		case "boom":
			newDUTs = append(newDUTs, func() rtl.DUT { return boom.New() })
		default:
			log.Fatalf("unknown dut %q", name)
		}
	}
	newDUT := newDUTs[0]
	// Fail fast on a bad checkpoint before any expensive work: with
	// -llm the pipeline training below takes minutes, and discovering
	// a missing file or mismatched arm set afterwards wastes all of it.
	if err := campaign.CheckMismatchWeight(*mweight, *detect); err != nil {
		log.Fatalf("-mismatch-weight: %v", err)
	}
	if *resume {
		if *checkpoint == "" {
			log.Fatal("-resume requires -checkpoint")
		}
		info, err := campaign.ReadCheckpointInfo(*checkpoint)
		if err != nil {
			log.Fatalf("resume: %v", err)
		}
		wantArms := 3
		if *llm {
			wantArms++
		}
		if *learn {
			wantArms++
		}
		if len(info.Arms) != wantArms {
			log.Fatalf("resume: checkpoint has %d arms but these flags build %d (add or drop -llm/-learn to match the original run: %v)",
				len(info.Arms), wantArms, info.Arms)
		}
	}

	arms := []campaign.ArmSpec{
		campaign.TheHuzzArm(*body),
		campaign.RandInstArm(*body),
		campaign.RandFuzzArm(*body),
	}
	var p *core.Pipeline
	if *llm || *learn {
		cfg := core.DefaultPipelineConfig()
		if *quickPipe {
			cfg = core.TestPipelineConfig()
		}
		fmt.Println("training pipeline for the LLM arm(s)...")
		cfg.Log = os.Stdout
		p = core.NewPipeline(cfg)
		p.Run(newDUT())
		if *llm {
			arms = append([]campaign.ArmSpec{campaign.LLMArm(p)}, arms...)
		}
		if *learn {
			arms = append([]campaign.ArmSpec{campaign.LearningLLMArm(p)}, arms...)
		}
	}

	// Observability plumbing (execution-only: none of it can move a
	// trajectory bit). Built before the fleet — fresh or resumed — so the
	// recorder and registry reach every layer at construction; the
	// deferred closers run after the orchestrator's own deferred Close,
	// so spans from off-barrier training joined at Close still land in
	// the trace.
	var rec *telemetry.Recorder
	var reg *telemetry.Registry
	if *traceFile != "" {
		tf, err := os.Create(*traceFile)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		rec = telemetry.NewRecorder(tf)
		defer func() {
			if err := rec.Close(); err != nil {
				log.Printf("trace: %v", err)
			}
			if n := rec.Dropped(); n > 0 {
				fmt.Printf("trace: %d events dropped to ring overwrites (rings drain per round; shorten rounds or expect gaps)\n", n)
			}
			tf.Close()
			fmt.Printf("trace written to %s\n", *traceFile)
		}()
	}
	if *metricsF != "" || *telemAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if *metricsF != "" {
		mf, err := os.Create(*metricsF)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		snap := telemetry.NewSnapshotter(mf, reg, *metricsDt)
		defer func() {
			if err := snap.Stop(); err != nil {
				log.Printf("metrics: %v", err)
			}
			mf.Close()
			fmt.Printf("metrics snapshots written to %s\n", *metricsF)
		}()
	}
	if *telemAddr != "" {
		addr, closeSrv, err := telemetry.Serve(*telemAddr, reg)
		if err != nil {
			log.Fatalf("telemetry-addr: %v", err)
		}
		fmt.Printf("telemetry endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)\n", addr)
		defer closeSrv()
	}
	// How this process runs and observes the fleet; the same value for a
	// fresh and a resumed one. Probe-derived metrics and the probe dump
	// both need the per-round probes recorded.
	exec := campaign.Exec{
		Probe:     *probe || *metricsF != "" || *probeJSON != "",
		Telemetry: rec,
		Metrics:   reg,
	}
	// What the fleet is. On -resume the checkpoint's values win.
	cfg := campaign.Config{
		Shards:         *shards,
		BatchSize:      *batch,
		RoundBatches:   *roundBatch,
		Seed:           *seed,
		Detect:         *detect,
		MismatchWeight: *mweight,
		UpdateBudget:   *budget,
		Exec:           exec,
	}

	var o *campaign.Orchestrator
	var err error
	if *resume {
		// Resume rebuilds the fleet from the checkpoint's Config; the
		// scheduling flags below would otherwise be silently ignored.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shards", "batch", "round-batches", "seed", "detect", "mismatch-weight", "update-budget":
				fmt.Printf("warning: -%s is ignored with -resume (the checkpoint's value is used)\n", f.Name)
			}
		})
		f, ferr := os.Open(*checkpoint)
		if ferr != nil {
			log.Fatalf("resume: %v", ferr)
		}
		o, err = campaign.ResumeExec(f, exec, newDUTs, arms...)
		f.Close()
		if err != nil {
			log.Fatalf("resume: %v", err)
		}
		fmt.Printf("resumed at round %d, %d tests, %.2f%% coverage\n", o.Rounds(), o.Tests(), o.Coverage())
	} else {
		o, err = campaign.NewMixed(cfg, newDUTs, arms...)
		if err != nil {
			log.Fatalf("campaign: %v", err)
		}
	}
	defer o.Close()

	// Run to the test budget round by round, trapping SIGINT at the
	// barrier: ^C stops after the current round completes, so the
	// epilogue below still flushes the checkpoint, metrics and trace of
	// a consistent barrier state. A second ^C kills immediately (the
	// default disposition is restored), which the atomic checkpoint
	// writer makes safe.
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt)
	interrupted := false
	for !interrupted && o.Tests() < *tests {
		if err := o.RunRound(); err != nil {
			log.Fatalf("campaign: %v", err)
		}
		select {
		case <-sigC:
			signal.Stop(sigC)
			interrupted = true
			fmt.Printf("\ninterrupted at round %d (%d of %d tests); flushing...\n",
				o.Rounds(), o.Tests(), *tests)
		default:
		}
	}
	signal.Stop(sigC)
	fmt.Print(o.Report())
	if *probe {
		fmt.Println(o.ProbeSummary())
		st := o.PoolStats()
		fmt.Printf("pool: %d workers, %d tests (%d run by workers, %d by the shards' own committers)\n",
			st.Workers, st.Submitted, st.Executed, st.Helped)
	}
	if *probeJSON != "" {
		if err := writeProbeJSON(*probeJSON, o.Probes()); err != nil {
			log.Fatalf("probe-json: %v", err)
		}
		fmt.Printf("per-round probes written to %s\n", *probeJSON)
	}
	// Use the orchestrator's own config here, not the flags: on -resume
	// the checkpoint's shard count and detect setting win.
	if o.Cfg.Detect {
		total := 0
		for s := 0; s < o.Cfg.Shards; s++ {
			d := o.Shard(s).Det
			if d != nil {
				total += d.RawCount - d.FilteredRaw
			}
		}
		fmt.Printf("non-filtered raw mismatches across the fleet: %d\n", total)
	}

	// The -learn headline: the same fleet with the LLM arm frozen, at
	// the same budget, compared at equal virtual time. Skipped on
	// resume (the frozen twin would not have lived the same history)
	// and on interrupt (an equal-budget comparison needs the budget).
	if *learn && !*resume && !interrupted {
		fmt.Println("running the frozen-LLM twin fleet for the learning delta...")
		frozenArms := make([]campaign.ArmSpec, 0, len(arms))
		for _, a := range arms {
			if a.Name != "chatfuzz-learn" {
				frozenArms = append(frozenArms, a)
			}
		}
		if !*llm {
			frozenArms = append([]campaign.ArmSpec{campaign.LLMArm(p)}, frozenArms...)
		}
		// Same fleet, observation cleared: the twin must not write into
		// the main run's trace, metrics or probes.
		fcfg := cfg
		fcfg.Exec = campaign.Exec{}
		fo, err := campaign.NewMixed(fcfg, newDUTs, frozenArms...)
		if err != nil {
			log.Fatalf("frozen twin: %v", err)
		}
		if err := fo.RunTests(*tests); err != nil {
			log.Fatalf("frozen twin: %v", err)
		}
		h := o.Hours()
		if fh := fo.Hours(); fh < h {
			h = fh
		}
		lc, fc := o.CoverageAt(h), fo.CoverageAt(h)
		fmt.Printf("online learning: %.2f%% vs frozen %.2f%% at %.2f virtual h (delta %+.2f)\n",
			lc, fc, h, lc-fc)
		fo.Close()
	}

	if *checkpoint != "" {
		if err := o.CheckpointFile(*checkpoint); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s\n", *checkpoint)
	}
}

// writeProbeJSON dumps per-round scheduler probes as JSON Lines: one
// RoundProbe object per line (durations in nanoseconds, Go's
// time.Duration serialization), consumable by jq without loading the
// whole run. Written atomically so an interrupt mid-dump cannot leave
// a torn file where a previous run's probes used to be.
func writeProbeJSON(path string, probes []campaign.RoundProbe) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		for _, p := range probes {
			if err := enc.Encode(p); err != nil {
				return err
			}
		}
		return nil
	})
}

// experiments are the names -exp accepts.
var experiments = []string{"fig2", "budget", "speedup", "boom", "findings", "training", "a1", "a2", "a3", "all"}

// parseExps turns the -exp comma list into a set, rejecting any name
// that is not an experiment.
func parseExps(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, w := range strings.Split(list, ",") {
		w = strings.TrimSpace(w)
		if !slices.Contains(experiments, w) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", w, strings.Join(experiments, ","))
		}
		want[w] = true
	}
	return want, nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "campaign":
			campaignMain(os.Args[2:])
			return
		case "submit":
			submitMain(os.Args[2:])
			return
		case "status":
			statusMain(os.Args[2:])
			return
		case "watch":
			watchMain(os.Args[2:])
			return
		}
	}
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick or paper")
		which     = flag.String("exp", "all", "comma list: fig2,budget,speedup,boom,findings,training,a1,a2,a3 or all")
	)
	flag.Parse()
	want, err := parseExps(*which)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzz-bench:", err)
		os.Exit(2)
	}

	var sc exp.Scale
	switch *scaleName {
	case "quick":
		sc = exp.Quick()
	case "paper":
		sc = exp.Paper()
	default:
		log.Fatalf("unknown scale %q", *scaleName)
	}

	all := want["all"]

	s := exp.NewSuite(sc, os.Stdout)

	needRocket := all || want["fig2"] || want["budget"] || want["speedup"] ||
		want["findings"] || want["a3"]
	if needRocket {
		s.RunRocketCampaigns()
	}
	if all || want["fig2"] {
		s.Fig2(os.Stdout)
	}
	if all || want["budget"] {
		s.EqualBudget(os.Stdout)
	}
	if all || want["speedup"] {
		s.Speedup(os.Stdout)
	}
	if all || want["boom"] {
		s.RunBoom(os.Stdout)
	}
	if all || want["findings"] {
		s.FindingsReport(os.Stdout)
	}
	if all || want["training"] {
		s.TrainingCurves(os.Stdout)
	}
	if all || want["a3"] {
		s.RunBaselines(os.Stdout)
	}
	if all || want["a2"] {
		s.AblationReward(os.Stdout, sc.TestsEqual/2)
	}
	if all || want["a1"] {
		s.AblationNoCleanup(os.Stdout, sc.TestsEqual/2)
	}
	fmt.Println("\ndone.")
}
