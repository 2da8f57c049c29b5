package campaign

// Tests for the fleet's single executor: the oracle-vs-production
// determinism table, the spare-core skew probe, and the
// mismatch-novelty reward.

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
	"chatfuzz/internal/trace"
)

// oracle is the reference every production run is compared against.
var oracle = Exec{serial: true}

// production lists the ways the one production path can be run and
// watched. None of it may move a trajectory bit or a checkpoint byte.
var production = []struct {
	name string
	exec func() Exec
}{
	{"production", func() Exec { return Exec{} }},
	// Full observability: flight recorder and metrics registry, so the
	// barrier is timed too — the acceptance property of the telemetry
	// plane.
	{"observed", func() Exec {
		return Exec{
			Telemetry: telemetry.NewRecorder(io.Discard),
			Metrics:   telemetry.NewRegistry(),
		}
	}},
}

// TestFleetPoolDeterminismTable is the acceptance property of the
// executor: across shard counts, homogeneous and mixed fleets, and
// frozen and learning arms, production — plain and fully observed —
// produces the oracle's merged trajectory bit for bit and
// its checkpoint byte for byte. Every cell runs twice: with three more
// cores than shards, so pool workers exist, race the committers and
// claim across shards and designs, and with no more cores than shards,
// so the pool is empty and every shard is an inline loop.
func TestFleetPoolDeterminismTable(t *testing.T) {
	duts := map[string][]func() rtl.DUT{
		"homogeneous": {newRocket},
		"mixed":       {newRocket, newBoom},
	}
	executed := 0 // entries run by pool workers, over the cells that have workers
	for _, shards := range []int{1, 4, 16} {
		for fleetName, newDUTs := range duts {
			for _, learn := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/%s/learn=%v", shards, fleetName, learn)
				t.Run(name, func(t *testing.T) {
					rounds := 3
					if shards == 16 {
						rounds = 2 // keep the big fleets cheap
					}
					type result struct {
						traj []ProgressPoint
						ckpt []byte
						pool engine.FleetStats
					}
					run := func(label string, ex Exec) result {
						// RoundBatches 2: a round feeds scores back between
						// its batches, not only at the barrier.
						cfg := Config{Shards: shards, BatchSize: 4, RoundBatches: 2, Seed: 33, Detect: true, Exec: ex}
						var arms []ArmSpec
						if learn {
							arms = learnArms(learnPipeline())
						} else {
							arms = testArms()
						}
						o, err := NewMixed(cfg, newDUTs, arms...)
						if err != nil {
							t.Fatalf("%s: NewMixed: %v", label, err)
						}
						defer o.Close()
						o.RunRounds(rounds)
						var buf bytes.Buffer
						if err := o.Checkpoint(&buf); err != nil {
							t.Fatalf("%s: Checkpoint: %v", label, err)
						}
						res := result{traj: o.Trajectory(), ckpt: buf.Bytes(), pool: o.pool.Stats()}
						if res.pool.Submitted != o.Tests() && !ex.serial {
							t.Errorf("%s: pool saw %d entries for %d tests", label, res.pool.Submitted, o.Tests())
						}
						return res
					}
					want := run("oracle", oracle)
					for _, procs := range []int{shards + 3, min(shards, 2)} {
						withProcs(t, procs)
						for _, p := range production {
							label := fmt.Sprintf("%s/GOMAXPROCS=%d", p.name, procs)
							got := run(label, p.exec())
							st := got.pool
							if workers := max(0, procs-shards); st.Workers != workers {
								t.Errorf("%s: pool has %d workers, want %d", label, st.Workers, workers)
							}
							if st.Executed+st.Helped != st.Submitted {
								t.Errorf("%s: pool ran %d+%d of %d entries", label, st.Executed, st.Helped, st.Submitted)
							}
							if st.Workers == 0 && st.Executed != 0 {
								t.Errorf("%s: an empty pool executed %d entries", label, st.Executed)
							}
							executed += st.Executed
							if len(got.traj) != len(want.traj) {
								t.Fatalf("%s trajectory has %d points, the oracle has %d", label, len(got.traj), len(want.traj))
							}
							for i := range want.traj {
								if got.traj[i] != want.traj[i] {
									t.Fatalf("%s trajectory diverges from the oracle at round %d: %+v vs %+v",
										label, i, got.traj[i], want.traj[i])
								}
							}
							if !bytes.Equal(got.ckpt, want.ckpt) {
								t.Errorf("%s checkpoint differs from the oracle's", label)
							}
						}
					}
				})
			}
		}
	}
	if executed == 0 {
		t.Error("no pool worker ever ran an entry; the worker path went untested")
	}
}

// slowDUT wraps a DUT under a distinct design name and vends runners
// that sleep before every run, modelling a rig whose simulator is
// slower than its siblings'.
type slowDUT struct {
	rtl.DUT
	delay time.Duration
}

func (s *slowDUT) Name() string { return s.DUT.Name() + "-slow" }

func (s *slowDUT) NewRunner() rtl.Runner { return &slowRunner{s.DUT.NewRunner(), s.delay} }

type slowRunner struct {
	rtl.Runner
	delay time.Duration
}

func (r *slowRunner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	time.Sleep(r.delay)
	return r.Runner.RunScratch(img, maxInsts, set, tr)
}

// TestFleetPoolShrinksBarrierWait is the skew probe, and the sizing
// rule's trade made visible: on a fleet whose shards alternate a fast
// and a deliberately slow design, spare cores must cut the time shards
// idle at the aggregation barrier, because the pool's workers run the
// slow design's entries alongside its committers — while with no more
// cores than shards the pool is empty and the fast shards simply wait.
// The test observes wall-clock, but the sleep-based skew (8ms per slow
// test, 8 tests per shard-round) keeps scheduling noise far below the
// signal, and sleeps overlap even on a single-core runner. At 2ms the
// skew was not far enough above the noise of a 2-core runner busy with
// other packages' tests.
func TestFleetPoolShrinksBarrierWait(t *testing.T) {
	newSlow := func() rtl.DUT { return &slowDUT{DUT: newRocket(), delay: 8 * time.Millisecond} }
	const shards, batch, rounds = 4, 8, 3
	type probe struct {
		simWaitMS float64 // the probe/sim_wait_ms sum over the rounds
		helped    int     // entries the shards' own committers ran
	}
	run := func(spare int) (probe, []ProgressPoint) {
		withProcs(t, shards+spare)
		reg := telemetry.NewRegistry()
		cfg := Config{Shards: shards, BatchSize: batch, Seed: 35, Exec: Exec{Metrics: reg}}
		o, err := NewMixed(cfg, []func() rtl.DUT{newRocket, newSlow}, testArms()...)
		if err != nil {
			t.Fatalf("NewMixed: %v", err)
		}
		defer o.Close()
		o.RunRounds(rounds)
		sim := reg.Snapshot().Histograms["probe/sim_wait_ms"]
		if sim.Count != rounds {
			t.Fatalf("probe/sim_wait_ms has %d samples for %d rounds", sim.Count, rounds)
		}
		return probe{simWaitMS: sim.Sum, helped: o.pool.Stats().Helped}, o.Trajectory()
	}

	none, noneTraj := run(0)
	spare, spareTraj := run(4)
	t.Logf("no spare cores:   %+v", none)
	t.Logf("four spare cores: %+v", spare)

	// The skew is real in both runs; spare cores must absorb it. The
	// typical shrink is ~2x; asserting only a 25% cut keeps scheduler
	// noise on loaded CI runners out of the verdict. Sim wait is the
	// pool's own metric — the sim-finish skew workers absorb — though with
	// frozen arms the learn wait is zero and the barrier wait would read
	// the same.
	if spare.simWaitMS >= none.simWaitMS*3/4 {
		t.Errorf("sim wait with spare cores %.2f ms did not shrink vs none %.2f ms (want < 3/4)",
			spare.simWaitMS, none.simWaitMS)
	}
	if spare.helped >= shards*batch*rounds {
		t.Error("committers ran every entry despite four pool workers; the pool was idle")
	}
	if none.helped != shards*batch*rounds {
		t.Errorf("empty pool: %d of %d entries committer-run", none.helped, shards*batch*rounds)
	}
	// Timing and pool size must not perturb the trajectory.
	if len(noneTraj) != len(spareTraj) {
		t.Fatalf("trajectories have %d vs %d points", len(noneTraj), len(spareTraj))
	}
	for i := range noneTraj {
		if noneTraj[i] != spareTraj[i] {
			t.Errorf("trajectory diverges at round %d with spare cores", i)
		}
	}
}

// TestFleetPoolCountsEveryTest: every fleet has a pool, and it
// accounts for every test the fleet ran.
func TestFleetPoolCountsEveryTest(t *testing.T) {
	o := mustNew(t, Config{Shards: 2, BatchSize: 4, Seed: 37})
	defer o.Close()
	o.RunRounds(2)
	st := o.pool.Stats()
	if st.Submitted != 2*2*4 {
		t.Errorf("pool saw %d entries, want %d", st.Submitted, 2*2*4)
	}
	if st.Executed+st.Helped != st.Submitted {
		t.Errorf("executed %d + committer-run %d != submitted %d", st.Executed, st.Helped, st.Submitted)
	}
}

// countingDUT is Rocket with its from-reset Run and its runners'
// RunScratch counted.
type countingDUT struct {
	rtl.DUT
	runs, scratch *atomic.Int64
}

func (d countingDUT) Run(img mem.Image, maxInsts int) rtl.Result {
	d.runs.Add(1)
	return d.DUT.Run(img, maxInsts)
}

func (d countingDUT) NewRunner() rtl.Runner { return countingRunner{d.DUT.NewRunner(), d.scratch} }

type countingRunner struct {
	rtl.Runner
	n *atomic.Int64
}

func (r countingRunner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	r.n.Add(1)
	return r.Runner.RunScratch(img, maxInsts, set, tr)
}

// TestFleetRunsEveryTestOnARunner pins the one execution path: a
// production fleet, with and without pool workers, simulates every
// test on a runner and never calls DUT.Run; the serial oracle calls
// DUT.Run once per test and never a runner.
func TestFleetRunsEveryTestOnARunner(t *testing.T) {
	const shards, batch, rounds = 2, 4, 2
	for _, tc := range []struct {
		name  string
		procs int
		ex    Exec
	}{
		{"production/no-workers", shards, Exec{}},
		{"production/workers", shards + 2, Exec{}},
		{"oracle", shards, oracle},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, tc.procs)
			var runs, scratch atomic.Int64
			newDUT := func() rtl.DUT { return countingDUT{newRocket(), &runs, &scratch} }
			o, err := New(Config{Shards: shards, BatchSize: batch, Seed: 39, Detect: true, Exec: tc.ex}, newDUT, testArms()...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer o.Close()
			if err := o.RunRounds(rounds); err != nil {
				t.Fatalf("RunRounds: %v", err)
			}
			if o.Tests() != shards*batch*rounds {
				t.Fatalf("fleet ran %d tests, want %d", o.Tests(), shards*batch*rounds)
			}
			wantRuns, wantScratch := int64(0), int64(o.Tests())
			if tc.ex.serial {
				wantRuns, wantScratch = wantScratch, wantRuns
			}
			if runs.Load() != wantRuns || scratch.Load() != wantScratch {
				t.Errorf("DUT.Run ran %d times and RunScratch %d, want %d and %d",
					runs.Load(), scratch.Load(), wantRuns, wantScratch)
			}
		})
	}
}

// TestMismatchNoveltyReward is the reward-table test for the
// signature-novelty blend: a noisy divergence that keeps repeating
// one signature earns the mismatch term exactly once, while each
// genuinely new cluster earns again — the raw-count scheme this
// replaces paid out on every repeat.
func TestMismatchNoveltyReward(t *testing.T) {
	// Two divergence flavours with stable, distinct signatures: an
	// rd-value mismatch on an ADD, and a trap-presence mismatch. The
	// detector clusters by (kind, opcode, fingerprint), so repeats of
	// the first are one cluster regardless of how often they fire.
	golden := trace.Entry{PC: 0x8000_0000, Raw: 0x33, Op: isa.OpADD,
		RdValid: true, Rd: 5, RdVal: 1}
	noisy := golden
	noisy.RdVal = 2 // same signature every time: rd-value|add
	trapGolden := trace.Entry{PC: 0x8000_0004, Raw: 0x33, Op: isa.OpADD}
	trapDUT := trapGolden
	trapDUT.Trap = true
	trapDUT.Cause = 2

	cfg := Config{Detect: true, MismatchWeight: 1}.withDefaults()
	d := mismatch.NewDetector()

	type round struct {
		name string
		feed func(test int)
		// wantReward is whether the round's novelty delta must earn a
		// non-zero mismatch reward; wantRaw asserts the raw counter
		// kept moving (what the old scheme paid on).
		wantReward bool
		wantRawNew int
	}
	rounds := []round{
		{"first noisy divergence", func(n int) {
			d.Analyze(n, []trace.Entry{noisy}, []trace.Entry{golden})
		}, true, 1},
		{"same divergence repeated 10x", func(n int) {
			for k := 0; k < 10; k++ {
				d.Analyze(n+k, []trace.Entry{noisy}, []trace.Entry{golden})
			}
		}, false, 10},
		{"new trap cluster", func(n int) {
			d.Analyze(n, []trace.Entry{trapDUT}, []trace.Entry{trapGolden})
		}, true, 1},
		{"both repeated again", func(n int) {
			d.Analyze(n, []trace.Entry{noisy}, []trace.Entry{golden})
			d.Analyze(n+1, []trace.Entry{trapDUT}, []trace.Entry{trapGolden})
		}, false, 2},
	}

	test := 1
	for _, rd := range rounds {
		t.Run(rd.name, func(t *testing.T) {
			m0 := d.NovelSignatures()
			raw0 := d.RawCount - d.FilteredRaw
			rd.feed(test)
			test += 16
			novel := d.NovelSignatures() - m0
			rawNew := d.RawCount - d.FilteredRaw - raw0
			if rawNew != rd.wantRawNew {
				t.Fatalf("raw non-filtered mismatches grew by %d, want %d", rawNew, rd.wantRawNew)
			}
			// One virtual hour per round keeps rates equal to counts.
			reward := cfg.reward(0, float64(novel)/1.0)
			if rd.wantReward && reward <= 0 {
				t.Errorf("novel cluster earned reward %v, want > 0", reward)
			}
			if !rd.wantReward {
				if reward != 0 {
					t.Errorf("repeat-only round earned reward %v, want 0 (raw scheme would have paid on %d repeats)",
						reward, rawNew)
				}
			}
		})
	}
}
