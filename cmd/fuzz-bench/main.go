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
// Campaign knobs of note: -dut and -arms take comma lists (e.g.
// "rocket,boom", "chatfuzz-learn,thehuzz"); shards alternate designs,
// and a chatfuzz-learn run ends with a frozen-LLM twin fleet's delta.
// -model loads the LLM arms' model from a train-lm file instead of
// training one; with -shards 1 -detect that is one campaign, ending
// with the detector's findings table:
//
//	fuzz-bench campaign -shards 1 -arms chatfuzz-learn -detect -model model.gob
//
// There is one execution path and nothing to choose: every shard's
// goroutine runs and commits its own rounds, a shared pool of workers
// fills whatever cores the shards leave idle (GOMAXPROCS − shards,
// computed), and learning-arm PPO training always runs on a
// background goroutine overlapped with the next round's simulation.
// -update-budget skips PPO steps while merged coverage is plateaued.
// Observation flags (-trace -metrics -telemetry-addr) apply to fresh
// and resumed fleets alike; with -metrics or -telemetry-addr the
// barrier is timed, and the probe/* histograms say where each round's
// wall-clock went (sim skew, learning join).
// See README.md in this directory for the full campaign flag guide.
//
// The submit, status and watch subcommands are the client side of the
// campaign farm daemon (cmd/campd): submit a job spec to a daemon,
// inspect its queue, and stream a job's round reports. submit takes
// campaign's fleet flags (fleetFlags), naming the same fleets:
//
//	fuzz-bench submit -addr 127.0.0.1:8700 -tests 2000 -watch
//	fuzz-bench status -addr 127.0.0.1:8700
//	fuzz-bench watch -addr 127.0.0.1:8700 job-1
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/exp"
	"chatfuzz/internal/farm"
	"chatfuzz/internal/telemetry"
)

// campaignOpts are the campaign subcommand's flags beyond the fleet:
// which pipeline its LLM arms train or load, where it checkpoints, and
// how this process observes the run.
type campaignOpts struct {
	quickPipe, resume                            bool
	model, checkpoint, trace, metrics, telemAddr string
	metricsEvery                                 time.Duration
}

// campaignFlags builds the campaign subcommand's flag set: the fleet
// flags submit shares, then the subcommand's own.
func campaignFlags() (*flag.FlagSet, func() (farm.JobSpec, error), *campaignOpts) {
	fs := flag.NewFlagSet("campaign", flag.ExitOnError)
	fleet := fleetFlags(fs)
	c := &campaignOpts{}
	fs.BoolVar(&c.quickPipe, "quickpipe", false, "train the tiny test-scale pipeline instead of the default one (smoke runs)")
	fs.StringVar(&c.model, "model", "", "load the chatfuzz arms' model from this train-lm file instead of training one")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "checkpoint file to write after the run")
	fs.BoolVar(&c.resume, "resume", false, "resume from -checkpoint instead of starting fresh")
	fs.StringVar(&c.trace, "trace", "", "write a Chrome trace-event JSON file of the run's spans (open in Perfetto or chrome://tracing); execution-only, trajectories are unaffected")
	fs.StringVar(&c.metrics, "metrics", "", "write periodic JSONL metrics snapshots to this file; execution-only")
	fs.DurationVar(&c.metricsEvery, "metrics-every", 5*time.Second, "snapshot interval for -metrics")
	fs.StringVar(&c.telemAddr, "telemetry-addr", "", "serve the metrics registry at /metrics, Go's expvars at /debug/vars and /debug/pprof on this address (e.g. localhost:6060, :0 picks a port)")
	return fs, fleet, c
}

// checkResume reads the checkpoint at path and checks its arm
// signatures and shard designs against the fleet spec builds on an
// untrained pipeline of pcfg, whose model shape and vocabulary are the
// trained one's: no pipeline step runs. It is ResumeExec's rule
// (campaign.CheckpointInfo.CheckFleet), applied before training.
func checkResume(path string, spec farm.JobSpec, pcfg core.PipelineConfig) error {
	info, err := campaign.ReadCheckpointInfo(path)
	if err != nil {
		return err
	}
	_, newDUTs, arms, err := spec.Fleet(core.NewPipeline(pcfg))
	if err != nil {
		return err
	}
	return info.CheckFleet(newDUTs, arms...)
}

// loadModel builds the pipeline of pcfg untrained and fills its model
// from the train-lm file at path: no pipeline step runs. It refuses a
// spec whose arms sample no pipeline, and a file whose model shape is
// not pcfg's (a default model under -quickpipe).
func loadModel(path string, spec farm.JobSpec, pcfg core.PipelineConfig) (*core.Pipeline, error) {
	// Only an arm that samples a pipeline fails without one.
	if _, _, _, err := spec.Fleet(nil); !errors.Is(err, campaign.ErrNeedsPipeline) {
		return nil, fmt.Errorf("-arms %s has no chatfuzz arm to sample it", strings.Join(spec.Arms, ","))
	}
	p := core.NewPipeline(pcfg)
	if err := p.Model.LoadFile(path); err != nil {
		return nil, err
	}
	return p, nil
}

// campaignMain runs the orchestrator subcommand.
func campaignMain(args []string) {
	fs, fleet, c := campaignFlags()
	fs.Parse(args)
	spec, err := fleet()
	if err != nil {
		log.Fatal(err)
	}
	pcfg := core.DefaultPipelineConfig()
	if c.quickPipe {
		pcfg = core.TestPipelineConfig()
	}
	pcfg.Log = os.Stdout
	// Fail fast on a bad model or checkpoint before any expensive work:
	// an LLM arm's pipeline trains for minutes, and discovering a missing
	// file or mismatched arm set afterwards wastes all of it.
	var p *core.Pipeline
	if c.model != "" {
		if p, err = loadModel(c.model, spec, pcfg); err != nil {
			log.Fatalf("model: %v", err)
		}
		fmt.Printf("model loaded from %s\n", c.model)
	}
	if c.resume {
		if c.checkpoint == "" {
			log.Fatal("-resume requires -checkpoint")
		}
		if err := checkResume(c.checkpoint, spec, pcfg); err != nil {
			log.Fatalf("resume: %v", err)
		}
	}
	if p == nil {
		if p, err = spec.Pipeline(pcfg); err != nil {
			log.Fatalf("campaign: %v", err)
		}
	}
	cfg, newDUTs, arms, err := spec.Fleet(p)
	if err != nil {
		log.Fatalf("campaign: %v", err)
	}

	// Observability plumbing (execution-only: none of it can move a
	// trajectory bit). Built before the fleet — fresh or resumed — so the
	// recorder and registry reach every layer at construction; the
	// deferred closers run after the orchestrator's own deferred Close,
	// so spans from off-barrier training joined at Close still land in
	// the trace.
	var rec *telemetry.Recorder
	var reg *telemetry.Registry
	if c.trace != "" {
		tf, err := os.Create(c.trace)
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
			fmt.Printf("trace written to %s\n", c.trace)
		}()
	}
	if c.metrics != "" || c.telemAddr != "" {
		reg = telemetry.NewRegistry()
	}
	if c.metrics != "" {
		mf, err := os.Create(c.metrics)
		if err != nil {
			log.Fatalf("metrics: %v", err)
		}
		snap := telemetry.NewSnapshotter(mf, reg, c.metricsEvery)
		defer func() {
			if err := snap.Stop(); err != nil {
				log.Printf("metrics: %v", err)
			}
			mf.Close()
			fmt.Printf("metrics snapshots written to %s\n", c.metrics)
		}()
	}
	if c.telemAddr != "" {
		addr, closeSrv, err := telemetry.Serve(c.telemAddr, reg)
		if err != nil {
			log.Fatalf("telemetry-addr: %v", err)
		}
		fmt.Printf("telemetry endpoint on http://%s (/metrics, /debug/vars, /debug/pprof)\n", addr)
		defer closeSrv()
	}
	// How this process runs and observes the fleet; the same value for a
	// fresh and a resumed one.
	exec := campaign.Exec{Telemetry: rec, Metrics: reg}
	// cfg is what the fleet is; on -resume the checkpoint's values win.
	cfg.Exec = exec

	var o *campaign.Orchestrator
	if c.resume {
		// Resume rebuilds the fleet from the checkpoint's Config; the
		// scheduling flags below would otherwise be silently ignored.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shards", "batch", "round-batches", "seed", "detect", "mismatch-weight", "update-budget":
				fmt.Printf("warning: -%s is ignored with -resume (the checkpoint's value is used)\n", f.Name)
			}
		})
		f, ferr := os.Open(c.checkpoint)
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
	for !interrupted && o.Tests() < spec.Tests {
		if err := o.RunRound(); err != nil {
			log.Fatalf("campaign: %v", err)
		}
		select {
		case <-sigC:
			signal.Stop(sigC)
			interrupted = true
			fmt.Printf("\ninterrupted at round %d (%d of %d tests); flushing...\n",
				o.Rounds(), o.Tests(), spec.Tests)
		default:
		}
	}
	signal.Stop(sigC)
	fmt.Print(o.Report())
	// Use the orchestrator's own config here, not the flags: on -resume
	// the checkpoint's shard count and detect setting win.
	if o.Cfg.Detect {
		total := 0
		for s := 0; s < o.Cfg.Shards; s++ {
			d := o.Shard(s).Det
			if d != nil {
				fmt.Printf("shard %d: %s", s, d.Report())
				total += d.RawCount - d.FilteredRaw
			}
		}
		fmt.Printf("non-filtered raw mismatches across the fleet: %d\n", total)
	}

	// The learning headline: the same fleet with the LLM arm frozen, at
	// the same budget, compared at equal virtual time. Skipped on
	// resume (the frozen twin would not have lived the same history)
	// and on interrupt (an equal-budget comparison needs the budget).
	if twin, ok := frozenTwin(spec); ok && !c.resume && !interrupted {
		fmt.Println("running the frozen-LLM twin fleet for the learning delta...")
		// Same fleet, observation cleared: the twin must not write into
		// the main run's trace or metrics.
		fcfg, _, frozenArms, err := twin.Fleet(p)
		if err != nil {
			log.Fatalf("frozen twin: %v", err)
		}
		fo, err := campaign.NewMixed(fcfg, newDUTs, frozenArms...)
		if err != nil {
			log.Fatalf("frozen twin: %v", err)
		}
		if err := fo.RunTests(spec.Tests); err != nil {
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

	if c.checkpoint != "" {
		if err := o.CheckpointFile(c.checkpoint); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		fmt.Printf("checkpoint written to %s\n", c.checkpoint)
	}
}

// frozenTwin names the fleet a learning run is measured against: spec
// with its chatfuzz-learn arm swapped for the frozen chatfuzz arm, or
// dropped when spec already schedules that one. ok is false when spec
// has no learning arm.
func frozenTwin(spec farm.JobSpec) (twin farm.JobSpec, ok bool) {
	i := slices.Index(spec.Arms, "chatfuzz-learn")
	if i < 0 {
		return spec, false
	}
	arms := slices.Clone(spec.Arms)
	if slices.Contains(arms, "chatfuzz") {
		arms = slices.Delete(arms, i, i+1)
	} else {
		arms[i] = "chatfuzz"
	}
	spec.Arms = arms
	return spec, true
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
