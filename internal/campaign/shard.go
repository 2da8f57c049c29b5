package campaign

import (
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
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

// Shard is one independent campaign of a fleet: the paper's fuzzing
// loop (Fig. 1a) on one DUT. The arm the bandit picked generates a
// batch, each entry runs on the DUT (coverage + trace) and the golden
// model (trace), the Coverage Calculator scores the entries, the
// Mismatch Detector compares the traces, and the scores feed back to
// the arm.
//
// A batch executes on the shard's persistent engine (internal/engine):
// the shard's goroutine is the committer — it runs its own batch's
// entries on scratch it keeps for life and commits them in input
// order — and the fleet pool's workers, if the machine has cores to
// spare, run ahead of it. Exec.serial swaps in the allocating
// reference loop the tests compare against.
//
// Orchestrator.Shard hands a shard out for inspection (mismatch
// reports, per-shard coverage); mutating it mid-campaign voids
// determinism.
type Shard struct {
	Calc *cov.Calculator
	// Det is the shard's Mismatch Detector; nil unless Config.Detect.
	Det *mismatch.Detector
	Clk *vtime.Clock
	// Tests counts the shard's committed tests.
	Tests int

	dut   rtl.DUT
	batch int
	arms  []arm
	eng   *engine.Engine   // nil on the serial oracle
	track *telemetry.Track // generate/commit spans (nil = disabled)
	// capture is set when the fleet has a TheHuzz arm: a batch of any
	// other arm then keeps its coverage-advancing bodies in found, which
	// syncPools drains into the fleet-wide mutation pool at the barrier.
	// TheHuzz admits its own discoveries, and with no TheHuzz arm
	// nothing would ever drain found.
	capture bool
	found   []thehuzz.PoolEntry
	closed  bool
}

// newShard builds a shard over dut running cfg's batch size and
// detection, submitting to pool (unless cfg runs the serial oracle);
// label names its telemetry track.
func newShard(dut rtl.DUT, cfg Config, pool *engine.FleetPool, label string) *Shard {
	s := &Shard{
		Calc:  cov.NewCalculator(dut.Space()),
		Clk:   vtime.NewVCS(),
		dut:   dut,
		batch: cfg.BatchSize,
		track: cfg.Telemetry.NewTrack(label),
	}
	if cfg.Detect {
		s.Det = mismatch.NewDetector()
	}
	if !cfg.serial {
		s.eng = engine.New(dut, engine.Config{Detect: cfg.Detect, Pool: pool})
	}
	return s
}

// close releases the shard's engine. Its results (Tests, Clk, Det,
// Calc) stay readable, but no further batches may run.
func (s *Shard) close() {
	s.closed = true
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
}

// runBatch runs one batch of g's programs and returns their scores:
// generate, execute, commit in input order, keep the coverage-advancing
// bodies for pool sync (capture, and g not TheHuzz), then hand the
// scores back to g.
func (s *Shard) runBatch(g core.Generator) []cov.Scores {
	if s.closed {
		// Fail loudly on production and oracle alike: without this, a
		// closed shard would silently fall back to the oracle.
		panic("campaign: batch after close")
	}
	t := s.track.Start()
	progs := g.GenerateBatch(s.batch)
	s.track.Span(telemetry.SpanGenerate, t)
	scores := make([]cov.Scores, len(progs))

	if s.eng != nil {
		round := s.eng.Submit(progs)
		s.Calc.BeginBatch()
		t := s.track.Start()
		round.Each(func(i int, o *engine.Outcome) {
			scores[i] = s.commit(o.Err, &o.Res, o.Golden, o.Same)
		})
		s.track.Span(telemetry.SpanCommit, t)
	} else {
		// The oracle simulates each program from reset as it commits it
		// (simulation reads no shard state), and compares every entry:
		// no prefix is taken as known.
		s.Calc.BeginBatch()
		for i, p := range progs {
			res, golden, err := s.runOne(p)
			scores[i] = s.commit(err, &res, golden, 0)
		}
	}

	if _, huzz := g.(*thehuzz.Gen); s.capture && !huzz {
		for i, sc := range scores {
			if sc.Incremental > 0 {
				body := make([]uint32, len(progs[i].Body))
				copy(body, progs[i].Body)
				s.found = append(s.found, thehuzz.PoolEntry{Body: body, Score: sc.Incremental})
			}
		}
	}
	g.Feedback(scores)
	return scores
}

// commit performs the deterministic, in-order accounting of one test:
// coverage scoring, differential analysis and the virtual-clock charge.
// buildErr marks a program the harness refused to build — it is scored
// as invalid (zero standalone and incremental coverage) and charged
// only the per-test overhead, never run as an empty image that would
// pollute coverage and reward. The first same entries of res.Trace and
// golden are known identical and are not compared again
// (engine.Outcome.Same).
func (s *Shard) commit(buildErr error, res *rtl.Result, golden []trace.Entry, same int) cov.Scores {
	if buildErr != nil {
		s.Clk.ChargeTest(0)
		s.Tests++
		if s.Det != nil {
			// No traces to compare, but the test number was consumed:
			// keep the detector's test count aligned with s.Tests.
			s.Det.SkipTest()
		}
		return cov.Scores{}
	}
	sc := s.Calc.Score(res.Coverage)
	s.Clk.ChargeTest(res.Cycles)
	s.Tests++
	if s.Det != nil {
		// A finding's Test is s.Tests after the test that produced it:
		// the detector is handed the post-increment number.
		s.Det.Observe(s.Tests, res.Trace, golden, same)
	}
	return sc
}

// runOne simulates one program from reset on the DUT (and the golden
// model when detection is on) — the oracle's per-test body.
func (s *Shard) runOne(p prog.Program) (rtl.Result, []trace.Entry, error) {
	img, _, err := prog.Build(p)
	if err != nil {
		return rtl.Result{}, nil, err
	}
	budget := prog.InstructionBudget(len(p.Body))
	res := s.dut.Run(img, budget)
	var golden []trace.Entry
	if s.Det != nil {
		golden = engine.GoldenRun(mem.Platform(), img, budget, nil)
	}
	return res, golden, nil
}

// EngineStats is a shim kept for bench/fleet.go, which adds up the two
// engine.PipeStats fields; it reports nothing and leaves with them in
// the benchmark harness's next revision.
func (s *Shard) EngineStats() (engine.PipeStats, bool) { return engine.PipeStats{}, false }
