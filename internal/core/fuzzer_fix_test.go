package core

// Regression tests for the hot-loop fixes that rode along with the
// batch execution engine: silently ignored build errors and the
// off-by-one detector test index — plus the engine/serial bit-identity
// guarantees.

import (
	"reflect"
	"runtime"
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine/enginetest"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

// fixedGen replays a fixed program list, cycling as needed.
type fixedGen struct {
	progs []prog.Program
}

func (g *fixedGen) Name() string { return "fixed" }

func (g *fixedGen) GenerateBatch(n int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		out[i] = g.progs[i%len(g.progs)]
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

// TestBuildErrorScoredInvalid: a program the harness cannot build must
// be scored as invalid (zero standalone/incremental coverage, total
// unchanged) instead of running an all-zero image — and must not
// panic, on either execution path.
func TestBuildErrorScoredInvalid(t *testing.T) {
	for _, serial := range []bool{false, true} {
		gen := &fixedGen{progs: []prog.Program{
			{Body: nopBody(8)},
			{Body: make([]uint32, prog.MaxBodyInstructions+1)}, // unbuildable
			{Body: nopBody(8)},
		}}
		f := NewFuzzer(gen, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 3, Detect: true, Serial: serial})
		scores := f.RunBatch()
		f.Close()

		if f.Tests != 3 {
			t.Fatalf("serial=%v: %d tests accounted, want 3", serial, f.Tests)
		}
		if f.Det.Tests != 3 {
			t.Errorf("serial=%v: detector counted %d tests, want 3 (invalid tests consume a test number)", serial, f.Det.Tests)
		}
		bad := scores[1]
		if bad.Standalone != 0 || bad.Incremental != 0 {
			t.Errorf("serial=%v: invalid program scored %+v, want zero standalone/incremental", serial, bad)
		}
		if bad.TotalBins != scores[0].TotalBins {
			t.Errorf("serial=%v: invalid program changed cumulative coverage: %d -> %d",
				serial, scores[0].TotalBins, bad.TotalBins)
		}
		// The invalid test still appears in the trajectory (it consumed
		// a test slot and per-test overhead), with coverage flat.
		if f.Progress[1].Coverage != f.Progress[0].Coverage {
			t.Errorf("serial=%v: invalid test moved the coverage trajectory", serial)
		}
		if f.Progress[1].Hours <= f.Progress[0].Hours {
			t.Errorf("serial=%v: invalid test charged no overhead", serial)
		}
	}
}

// TestDetectorTestIndexMatchesTrajectory: the detector used to be
// handed the pre-increment test counter while ProgressPoint.Tests
// recorded the post-increment value, so findings pointed one test
// before the input that produced them. A MUL body deterministically
// fires Bug2 (the Rocket tracer omits MUL/DIV writeback); placed as
// the second of three tests, its findings must carry Test == 2, and
// that number must exist in the trajectory.
func TestDetectorTestIndexMatchesTrajectory(t *testing.T) {
	mulBody := []uint32{isa.Enc(isa.OpMUL, 5, 6, 7, 0)}
	for _, serial := range []bool{false, true} {
		gen := &fixedGen{progs: []prog.Program{
			{Body: nopBody(4)},
			{Body: mulBody},
			{Body: nopBody(4)},
		}}
		f := NewFuzzer(gen, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 3, Detect: true, Serial: serial})
		f.RunBatch()
		f.Close()

		var bug2Test int
		for _, r := range f.Det.Unique() {
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
		// Invariant: every finding's Test is a valid post-increment
		// test number present in the trajectory.
		if f.Progress[bug2Test-1].Tests != bug2Test {
			t.Errorf("serial=%v: trajectory point %d has Tests=%d, finding claims %d",
				serial, bug2Test-1, f.Progress[bug2Test-1].Tests, bug2Test)
		}
	}
}

// TestEngineMatchesSerialPath is the engine's determinism contract: a
// fixed-seed campaign produces a bit-identical coverage trajectory and
// detector state on the engine and the serial oracle, for both a
// feedback-free generator (random regression, which ignores scores) and
// a feedback-consuming one (TheHuzz, whose pool admission depends on
// scores) — with no spare core (GOMAXPROCS 1: the committer runs every
// entry) and with three pool workers racing it.
func TestEngineMatchesSerialPath(t *testing.T) {
	type maker func() Generator
	cases := []struct {
		name string
		gen  maker
	}{
		{"feedback-free", func() Generator { return randfuzz.New(5, 16) }},
		{"thehuzz", func() Generator { return thehuzz.New(5, 16) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(serial bool) *Fuzzer {
				f := NewFuzzer(c.gen(), rocket.New(), Options{
					Pool: enginetest.Pool(t), BatchSize: 8, Detect: true, Serial: serial,
				})
				f.RunBatches(7)
				f.Close()
				return f
			}
			want := run(true)
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				got := run(false)
				if !reflect.DeepEqual(got.Progress, want.Progress) {
					t.Errorf("GOMAXPROCS=%d: engine trajectory diverged from serial path", procs)
				}
				if got.Coverage() != want.Coverage() {
					t.Errorf("GOMAXPROCS=%d: coverage %.6f vs serial %.6f", procs, got.Coverage(), want.Coverage())
				}
				if got.Det.RawCount != want.Det.RawCount || got.Det.FilteredRaw != want.Det.FilteredRaw {
					t.Errorf("GOMAXPROCS=%d: detector counts (%d,%d) vs serial (%d,%d)",
						procs, got.Det.RawCount, got.Det.FilteredRaw, want.Det.RawCount, want.Det.FilteredRaw)
				}
			}
		})
	}
}

// TestRunBatchAfterClosePanics: Close promises no further batches may
// run; the failure must be loud on both paths, never a silent
// fallback to the serial loop.
func TestRunBatchAfterClosePanics(t *testing.T) {
	for _, serial := range []bool{false, true} {
		f := NewFuzzer(randfuzz.New(1, 8), rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 4, Serial: serial})
		f.RunBatch()
		f.Close()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("serial=%v: RunBatch after Close did not panic", serial)
				}
			}()
			f.RunBatch()
		}()
	}
}
