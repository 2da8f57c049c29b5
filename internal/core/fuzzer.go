package core

import (
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
	"chatfuzz/internal/trace"
	"chatfuzz/internal/vtime"
)

// ProgressPoint is one round's sample of a fleet's coverage trajectory
// (campaign.Orchestrator.Trajectory, the series behind Fig. 2).
type ProgressPoint struct {
	Tests    int
	Hours    float64 // virtual wall-clock hours
	Coverage float64 // cumulative condition coverage %
}

// Options configures a fuzzer.
type Options struct {
	// BatchSize is the number of test inputs per fuzzing round (one
	// "batch" in the paper's Coverage Calculator semantics).
	BatchSize int
	// Detect enables differential testing against the golden model.
	Detect bool
	// Pool is the execution pool the fuzzer's engine submits its rounds
	// to (required unless Serial). Ownership does not transfer: Close
	// never releases it; it belongs to whoever built it (the campaign
	// orchestrator, which closes it after every shard).
	Pool *engine.FleetPool
	// Serial replaces the engine with the reference oracle for tests: a
	// plain loop that builds and simulates each program in turn with
	// freshly allocated scratch, then commits in order. Production and
	// the oracle produce bit-identical trajectories, detector output
	// and checkpoints — that equality is what the determinism tests
	// assert; nothing else should set it.
	Serial bool
	// Telemetry, when non-nil, records the fuzzer's generate and
	// commit spans on its own flight-recorder track; the engine's
	// build/sim/golden spans go to Pool's recorder. Execution-only:
	// never checkpointed, never read back.
	Telemetry *telemetry.Recorder
	// TelemetryLabel names the fuzzer's track in the trace (default
	// the DUT name; a sharded fleet passes "shard<N>/<design>").
	TelemetryLabel string
}

// Fuzzer drives the paper's fuzzing loop (Fig. 1a): the generator
// produces a batch, each entry runs on the DUT (coverage + trace) and
// the golden model (trace), the Coverage Calculator scores entries,
// the Mismatch Detector compares traces, and scores feed back to the
// generator.
//
// Batch execution is delegated to the persistent engine
// (internal/engine): the fuzzer's goroutine is the committer — it runs
// its own round's entries on scratch it keeps for life and commits
// them in deterministic input order — and the pool's workers, if the
// machine has cores to spare, run ahead of it. Options.Serial swaps in
// the allocating reference loop the tests compare against.
//
// A Fuzzer is one shard's engine: internal/campaign builds one per
// shard and drives it with RunBatches.
type Fuzzer struct {
	Gen  Generator
	DUT  rtl.DUT
	Calc *cov.Calculator
	Det  *mismatch.Detector
	Clk  *vtime.Clock

	BatchSize int
	Tests     int

	eng    *engine.Engine
	track  *telemetry.Track // generate/commit spans (nil = disabled)
	closed bool
}

// NewFuzzer assembles a fuzzer.
func NewFuzzer(gen Generator, dut rtl.DUT, opts Options) *Fuzzer {
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	f := &Fuzzer{
		Gen:       gen,
		DUT:       dut,
		Calc:      cov.NewCalculator(dut.Space()),
		Clk:       vtime.NewVCS(),
		BatchSize: opts.BatchSize,
	}
	if opts.Detect {
		f.Det = mismatch.NewDetector()
	}
	label := opts.TelemetryLabel
	if label == "" {
		label = dut.Name()
	}
	f.track = opts.Telemetry.NewTrack(label)
	if !opts.Serial {
		f.eng = engine.New(dut, engine.Config{Detect: opts.Detect, Pool: opts.Pool})
	}
	return f
}

// Close releases the execution engine. The fuzzer's results
// (Tests, Clk, Det, Calc) stay readable, but no further batches may run.
func (f *Fuzzer) Close() {
	f.closed = true
	if f.eng != nil {
		f.eng.Close()
		f.eng = nil
	}
}

// commitOne performs the deterministic, in-order accounting of one
// test: coverage scoring, differential analysis and the virtual-clock
// charge. buildErr marks a program the harness refused to build — it
// is scored as invalid (zero standalone and incremental coverage) and
// charged only the per-test overhead, never run as an empty image that
// would pollute coverage and reward. The first same entries of
// res.Trace and golden are known identical and are not compared again
// (engine.Outcome.Same).
func (f *Fuzzer) commitOne(buildErr error, res *rtl.Result, golden []trace.Entry, same int) cov.Scores {
	if buildErr != nil {
		f.Clk.ChargeTest(0)
		f.Tests++
		if f.Det != nil {
			// No traces to compare, but the test number was consumed:
			// keep the detector's test count aligned with f.Tests.
			f.Det.SkipTest()
		}
		return cov.Scores{}
	}
	sc := f.Calc.Score(res.Coverage)
	f.Clk.ChargeTest(res.Cycles)
	f.Tests++
	if f.Det != nil {
		// A finding's Test is f.Tests after the test that produced it:
		// the detector is handed the post-increment number.
		f.Det.Observe(f.Tests, res.Trace, golden, same)
	}
	return sc
}

// runOne simulates one program on the DUT (and the golden model when
// detection is on) — the oracle's per-test body.
func (f *Fuzzer) runOne(p prog.Program) (rtl.Result, []trace.Entry, error) {
	img, _, err := prog.Build(p)
	if err != nil {
		return rtl.Result{}, nil, err
	}
	budget := prog.InstructionBudget(len(p.Body))
	res := f.DUT.Run(img, budget)
	var golden []trace.Entry
	if f.Det != nil {
		golden = engine.GoldenRun(mem.Platform(), img, budget, nil)
	}
	return res, golden, nil
}

// RunBatch executes one fuzzing round of BatchSize tests and returns
// the per-entry scores.
func (f *Fuzzer) RunBatch() []cov.Scores {
	if f.closed {
		// Fail loudly on production and oracle alike: without this, a
		// closed engine fuzzer would silently fall back to the oracle.
		panic("core: RunBatch after Close")
	}
	t := f.track.Start()
	progs := f.Gen.GenerateBatch(f.BatchSize)
	f.track.Span(telemetry.SpanGenerate, t)
	scores := make([]cov.Scores, len(progs))

	if f.eng != nil {
		round := f.eng.Submit(progs)
		f.Calc.BeginBatch()
		t := f.track.Start()
		round.Each(func(i int, o *engine.Outcome) {
			scores[i] = f.commitOne(o.Err, &o.Res, o.Golden, o.Same)
		})
		f.track.Span(telemetry.SpanCommit, t)
	} else {
		// The oracle: simulate everything, then account in order.
		type outcome struct {
			res    rtl.Result
			golden []trace.Entry
			err    error
		}
		outs := make([]outcome, len(progs))
		for i, p := range progs {
			outs[i].res, outs[i].golden, outs[i].err = f.runOne(p)
		}
		f.Calc.BeginBatch()
		t := f.track.Start()
		for i := range outs {
			// The oracle compares every entry: no prefix is taken as known.
			o := &outs[i]
			scores[i] = f.commitOne(o.err, &o.res, o.golden, 0)
		}
		f.track.Span(telemetry.SpanCommit, t)
	}

	f.Gen.Feedback(scores)
	return scores
}

// EngineStats is a shim kept for bench/fleet.go (fenced), which adds
// up the two engine.PipeStats fields; it reports nothing and leaves
// with them in the follow-up benchmark PR.
func (f *Fuzzer) EngineStats() (engine.PipeStats, bool) { return engine.PipeStats{}, false }

// RunBatches executes n fuzzing rounds of BatchSize tests: exactly n
// RunBatch calls.
func (f *Fuzzer) RunBatches(n int) {
	for i := 0; i < n; i++ {
		f.RunBatch()
	}
}
