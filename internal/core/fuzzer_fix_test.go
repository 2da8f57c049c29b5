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

// fixedGen replays a fixed program list in order across batches,
// cycling as needed.
type fixedGen struct {
	progs []prog.Program
	next  int
}

func (g *fixedGen) Name() string { return "fixed" }

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
		f := NewFuzzer(gen, rocket.New(), Options{Pool: enginetest.Pool(t), BatchSize: 1, Detect: true, Serial: serial})
		f.RunBatch()
		bins, secs := f.Calc.Total().Count(), f.Clk.Seconds()
		if bad := f.RunBatch()[0]; bad != (cov.Scores{}) {
			t.Errorf("serial=%v: invalid program scored %+v, want zero standalone/incremental", serial, bad)
		}
		if got := f.Calc.Total().Count(); got != bins {
			t.Errorf("serial=%v: invalid program changed cumulative coverage: %d -> %d bins", serial, bins, got)
		}
		if f.Clk.Seconds() <= secs {
			t.Errorf("serial=%v: invalid test charged no overhead", serial)
		}
		f.RunBatch()
		f.Close()

		if f.Tests != 3 {
			t.Fatalf("serial=%v: %d tests accounted, want 3", serial, f.Tests)
		}
		if f.Det.Tests != 3 {
			t.Errorf("serial=%v: detector counted %d tests, want 3 (invalid tests consume a test number)", serial, f.Det.Tests)
		}
	}
}

// TestDetectorTestIndexIsPostIncrement: the detector used to be handed
// the pre-increment test counter, so findings pointed one test before
// the input that produced them. A MUL body deterministically fires
// Bug2 (the Rocket tracer omits MUL/DIV writeback); placed as the
// second of three tests, its findings must carry Test == 2, the
// fuzzer's Tests after that input.
func TestDetectorTestIndexIsPostIncrement(t *testing.T) {
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
			// batch is what one RunBatch leaves observable.
			type batch struct {
				scores []cov.Scores
				bins   int
				secs   float64
			}
			run := func(serial bool) (*Fuzzer, []batch) {
				f := NewFuzzer(c.gen(), rocket.New(), Options{
					Pool: enginetest.Pool(t), BatchSize: 8, Detect: true, Serial: serial,
				})
				var batches []batch
				for i := 0; i < 7; i++ {
					scores := f.RunBatch()
					batches = append(batches, batch{scores, f.Calc.Total().Count(), f.Clk.Seconds()})
				}
				f.Close()
				return f, batches
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
