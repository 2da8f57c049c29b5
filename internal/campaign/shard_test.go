package campaign

// One shard driven batch by batch, outside a fleet: the loop's
// accounting (coverage, clock, detector numbering, build errors), its
// engine/oracle bit-identity and its allocation budget.

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/trace"
)

// testShard builds a lone shard over dut, on a pool sized for one
// committer that closes when t ends.
func testShard(t testing.TB, dut rtl.DUT, batch int, detect, serial bool) *Shard {
	pool := engine.NewFleetPool(engine.SpareWorkers(1), nil)
	t.Cleanup(pool.Close)
	return newShard(dut, Config{BatchSize: batch, Detect: detect, Exec: Exec{serial: serial}}, pool, dut.Name())
}

// runBatches runs n batches of g on s.
func runBatches(s *Shard, g core.Generator, n int) {
	for i := 0; i < n; i++ {
		s.runBatch(g)
	}
}

// fixedGen replays a fixed program list in order across batches,
// cycling as needed.
type fixedGen struct {
	progs []prog.Program
	next  int
}

func (g *fixedGen) GenerateBatch(n int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		out[i] = g.progs[g.next%len(g.progs)]
		g.next++
	}
	return out
}

func (g *fixedGen) Feedback([]cov.Scores) {}

func nopBody(n int) []uint32 {
	body := make([]uint32, n)
	for i := range body {
		body[i] = isa.NOP
	}
	return body
}

func TestShardAccumulatesCoverageMonotonically(t *testing.T) {
	g := randfuzz.New(1, 20)
	s := testShard(t, rocket.New(), 8, false, false)
	prevBins, prevSecs := 0, 0.0
	for i := 0; i < 8; i++ {
		s.runBatch(g)
		bins, secs := s.Calc.Total().Count(), s.Clk.Seconds()
		if bins < prevBins {
			t.Fatalf("coverage decreased at batch %d: %d -> %d bins", i, prevBins, bins)
		}
		if secs <= prevSecs {
			t.Fatalf("virtual clock did not advance at batch %d", i)
		}
		prevBins, prevSecs = bins, secs
	}
	if s.Tests != 64 {
		t.Errorf("Tests = %d, want 64", s.Tests)
	}
	if s.Calc.Total().Percent() <= 0 {
		t.Error("no coverage accumulated")
	}
}

func TestShardDetectsFindingsWithLLM(t *testing.T) {
	// A short campaign with the trained model over a corpus that
	// includes self-modifying code, MUL/DIV, AMOs: the detector should
	// fire on at least Bug2 (any mul/div in a passing trace mismatches).
	p := core.NewPipeline(core.TestPipelineConfig())
	p.Pretrain()
	g := core.NewLLMGenerator(p, rocket.New().Space().NumBins(), 7)
	s := testShard(t, rocket.New(), 8, true, false)
	runBatches(s, g, 10)
	if s.Det.RawCount == 0 {
		t.Error("no mismatches found by differential testing")
	}
	if !slices.ContainsFunc(s.Det.Unique(), func(r *mismatch.Record) bool {
		return !r.Filtered && r.Finding != mismatch.FindingUnknown
	}) {
		t.Error("no classified findings")
	}
}

func TestShardDeterminism(t *testing.T) {
	run := func() (float64, int) {
		g := randfuzz.New(3, 16)
		s := testShard(t, rocket.New(), 8, false, false)
		runBatches(s, g, 6)
		return s.Calc.Total().Percent(), s.Tests
	}
	c1, n1 := run()
	c2, n2 := run()
	if c1 != c2 || n1 != n2 {
		t.Errorf("campaign not deterministic: (%.4f,%d) vs (%.4f,%d)", c1, n1, c2, n2)
	}
}

func TestTheHuzzPoolGrowsAndMutates(t *testing.T) {
	g := thehuzz.New(1, 20)
	s := testShard(t, rocket.New(), 16, false, false)
	runBatches(s, g, 10)
	if len(g.State().Pool) == 0 {
		t.Error("TheHuzz pool never accumulated interesting inputs")
	}
}

func TestCoverageGuidanceBeatsNoFeedback(t *testing.T) {
	// TheHuzz (coverage feedback) vs raw-random (no feedback, mostly
	// illegal words) on an equal budget: feedback must win clearly.
	const batches = 20 // 320 tests
	th := thehuzz.New(5, 20)
	sTH := testShard(t, rocket.New(), 16, false, false)
	runBatches(sTH, th, batches)

	raw := randfuzz.New(5, 20)
	raw.Raw = true
	sRaw := testShard(t, rocket.New(), 16, false, false)
	runBatches(sRaw, raw, batches)

	t.Logf("thehuzz %.2f%%  raw-random %.2f%%", sTH.Calc.Total().Percent(), sRaw.Calc.Total().Percent())
	if sTH.Calc.Total().Percent() <= sRaw.Calc.Total().Percent() {
		t.Errorf("coverage feedback (%.2f%%) should beat raw random (%.2f%%)",
			sTH.Calc.Total().Percent(), sRaw.Calc.Total().Percent())
	}
}

// TestBuildErrorScoredInvalid: a program the harness cannot build must
// be scored as invalid (zero standalone/incremental coverage, total
// unchanged) instead of running an all-zero image — and must not
// panic, on either execution path. It still consumes a test number and
// the per-test overhead.
func TestBuildErrorScoredInvalid(t *testing.T) {
	for _, serial := range []bool{false, true} {
		gen := &fixedGen{progs: []prog.Program{
			{Body: nopBody(8)},
			{Body: make([]uint32, prog.MaxBodyInstructions+1)}, // unbuildable
			{Body: nopBody(8)},
		}}
		// One test per batch: the total and the clock are read around
		// the invalid one.
		s := testShard(t, rocket.New(), 1, true, serial)
		s.runBatch(gen)
		bins, secs := s.Calc.Total().Count(), s.Clk.Seconds()
		if bad := s.runBatch(gen)[0]; bad != (cov.Scores{}) {
			t.Errorf("serial=%v: invalid program scored %+v, want zero standalone/incremental", serial, bad)
		}
		if got := s.Calc.Total().Count(); got != bins {
			t.Errorf("serial=%v: invalid program changed cumulative coverage: %d -> %d bins", serial, bins, got)
		}
		if s.Clk.Seconds() <= secs {
			t.Errorf("serial=%v: invalid test charged no overhead", serial)
		}
		s.runBatch(gen)
		s.close()

		if s.Tests != 3 {
			t.Fatalf("serial=%v: %d tests accounted, want 3", serial, s.Tests)
		}
		if s.Det.Tests != 3 {
			t.Errorf("serial=%v: detector counted %d tests, want 3 (invalid tests consume a test number)", serial, s.Det.Tests)
		}
	}
}

// TestDetectorTestIndexIsPostIncrement: the detector used to be handed
// the pre-increment test counter, so findings pointed one test before
// the input that produced them. A MUL body deterministically fires
// Bug2 (the Rocket tracer omits MUL/DIV writeback); placed as the
// second of three tests, its findings must carry Test == 2, the
// shard's Tests after that input.
func TestDetectorTestIndexIsPostIncrement(t *testing.T) {
	mulBody := []uint32{isa.Enc(isa.OpMUL, 5, 6, 7, 0)}
	for _, serial := range []bool{false, true} {
		gen := &fixedGen{progs: []prog.Program{
			{Body: nopBody(4)},
			{Body: mulBody},
			{Body: nopBody(4)},
		}}
		s := testShard(t, rocket.New(), 3, true, serial)
		s.runBatch(gen)
		s.close()

		var bug2Test int
		for _, r := range s.Det.Unique() {
			if r.Finding == mismatch.FindingBug2 {
				bug2Test = r.Example.Test
			}
		}
		if bug2Test == 0 {
			t.Fatalf("serial=%v: MUL body did not fire Bug2", serial)
		}
		if bug2Test != 2 {
			t.Errorf("serial=%v: Bug2 recorded at test %d, want 2 (the input that produced it)", serial, bug2Test)
		}
	}
}

// TestEngineMatchesSerialPath is the engine's determinism contract: a
// fixed-seed campaign produces bit-identical per-test scores, and after
// every batch the same cumulative coverage and clock, and the same
// detector state on the engine and the serial oracle, for both a
// feedback-free generator (random regression, which ignores scores) and
// a feedback-consuming one (TheHuzz, whose pool admission depends on
// scores) — with no spare core (GOMAXPROCS 1: the committer runs every
// entry) and with three pool workers racing it.
func TestEngineMatchesSerialPath(t *testing.T) {
	type maker func() core.Generator
	cases := []struct {
		name string
		gen  maker
	}{
		{"feedback-free", func() core.Generator { return randfuzz.New(5, 16) }},
		{"thehuzz", func() core.Generator { return thehuzz.New(5, 16) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// batch is what one runBatch leaves observable.
			type batch struct {
				scores []cov.Scores
				bins   int
				secs   float64
			}
			run := func(serial bool) (*Shard, []batch) {
				s := testShard(t, rocket.New(), 8, true, serial)
				g := c.gen()
				var batches []batch
				for i := 0; i < 7; i++ {
					scores := s.runBatch(g)
					batches = append(batches, batch{scores, s.Calc.Total().Count(), s.Clk.Seconds()})
				}
				s.close()
				return s, batches
			}
			want, wantBatches := run(true)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got, gotBatches := run(false)
				if !reflect.DeepEqual(gotBatches, wantBatches) {
					t.Errorf("GOMAXPROCS=%d: engine scores, coverage or clock diverged from serial path", procs)
				}
				if got.Calc.Total().Percent() != want.Calc.Total().Percent() {
					t.Errorf("GOMAXPROCS=%d: coverage %.6f vs serial %.6f", procs, got.Calc.Total().Percent(), want.Calc.Total().Percent())
				}
				if got.Det.RawCount != want.Det.RawCount || got.Det.FilteredRaw != want.Det.FilteredRaw {
					t.Errorf("GOMAXPROCS=%d: detector counts (%d,%d) vs serial (%d,%d)",
						procs, got.Det.RawCount, got.Det.FilteredRaw, want.Det.RawCount, want.Det.FilteredRaw)
				}
			}
		})
	}
}

// TestBatchAfterClosePanics: close promises no further batches may
// run; the failure must be loud on both paths, never a silent
// fallback to the serial loop.
func TestBatchAfterClosePanics(t *testing.T) {
	for _, serial := range []bool{false, true} {
		g := randfuzz.New(1, 8)
		s := testShard(t, rocket.New(), 4, false, serial)
		s.runBatch(g)
		s.close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("serial=%v: batch after close did not panic", serial)
				}
			}()
			s.runBatch(g)
		}()
	}
}

// TestSteadyStateCommitAllocFree pins the commit path's allocation
// budget at zero, with no set-up: committing a test — coverage scoring
// (batch snapshot reuse via Set.CopyFrom), mismatch analysis on a clean
// trace, clock charge — must not grow the heap, so no per-test record
// can grow with the campaign. This is the regression guard for the
// engine's alloc-free commit claim; a fresh snapshot set or per-commit
// buffer sneaking back into cov or mismatch fails it.
func TestSteadyStateCommitAllocFree(t *testing.T) {
	s := testShard(t, rocket.New(), 4, true, false)
	defer s.close()

	// Straight-line addi body: DUT and golden model agree, so the
	// detector exercises its steady-state no-mismatch path.
	body := make([]uint32, 16)
	for i := range body {
		body[i] = uint32(i)<<20 | uint32(i%31+1)<<7 | 0x13
	}
	res, golden, err := s.runOne(prog.Program{Body: body})
	if err != nil {
		t.Fatal(err)
	}

	// One warm commit builds any lazily-grown detector/calculator state.
	s.Calc.BeginBatch()
	s.commit(nil, &res, golden, 0)

	// allocs runs a warm-up and a measured pass of runs commits each and
	// counts every object the measured pass allocated under BeginBatch
	// or commit, so an amortised append, a few growths in 200 commits,
	// counts in full.
	// It reads the heap profile at rate 1 rather than the process-wide
	// MemStats.Mallocs, which testing.AllocsPerRun reads: that counter
	// also takes the runtime's own allocations, such as the background
	// scavenger growing a P's timer heap after AllocsPerRun's
	// GOMAXPROCS(1), which failed this test now and then under -race.
	const runs = 200
	allocs := func() float64 {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 1
		pass := func() {
			for i := 0; i < runs; i++ {
				s.Calc.BeginBatch()
				s.commit(nil, &res, golden, 0)
			}
		}
		pass()
		before := passAllocs()
		pass()
		return float64(passAllocs() - before)
	}
	if n := allocs(); n != 0 {
		t.Errorf("%d steady-state commits allocate %.0f objects, want 0", runs, n)
	}
	if s.Det.RawCount != 0 {
		t.Fatalf("benign trace produced %d raw mismatches; the measurement exercised the wrong path", s.Det.RawCount)
	}

	// A divergence in an existing cluster allocates nothing either: the
	// signature is looked up from the detector's own byte buffer, and a
	// string is made only for a cluster seen for the first time.
	bad := append([]trace.Entry(nil), res.Trace...)
	last := &bad[len(bad)-1]
	last.RdValid, last.Rd, last.RdVal = true, 7, 99
	res.Trace = bad
	s.Calc.BeginBatch()
	s.commit(nil, &res, golden, 0)
	if n := allocs(); n != 0 {
		t.Errorf("%d commits of a repeated divergence allocate %.0f objects, want 0", runs, n)
	}
	if s.Det.RawCount != 2*runs+1 || len(s.Det.Unique()) != 1 {
		t.Fatalf("repeated divergence: %d raw in %d clusters, want %d in 1", s.Det.RawCount, len(s.Det.Unique()), 2*runs+1)
	}
}

// passAllocs returns the objects allocated so far, while the heap
// profile recorded them, by call stacks that pass through
// Calculator.BeginBatch or Shard.commit, the two calls of the measured
// pass. A heap profile is published two collections after its
// allocations.
func passAllocs() int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if f.Function == "chatfuzz/internal/cov.(*Calculator).BeginBatch" ||
				f.Function == "chatfuzz/internal/campaign.(*Shard).commit" {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
