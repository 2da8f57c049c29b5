package core

import (
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

// TestSteadyStateCommitAllocFree pins the commit path's allocation
// budget at zero: once the trajectory slice has capacity, committing a
// test — coverage scoring (batch snapshot reuse via Set.CopyFrom),
// mismatch analysis on a clean trace, clock charge, progress append —
// must not grow the heap. This is the regression guard for the
// engine's alloc-free commit claim; a Clone or per-commit
// buffer sneaking back into cov or mismatch fails it.
func TestSteadyStateCommitAllocFree(t *testing.T) {
	dut := rocket.New()
	f := NewFuzzer(randfuzz.New(3, 16), dut, Options{BatchSize: 4, Detect: true})
	defer f.Close()

	// Straight-line addi body: DUT and golden model agree, so the
	// detector exercises its steady-state no-mismatch path.
	body := make([]uint32, 16)
	for i := range body {
		body[i] = uint32(i)<<20 | uint32(i%31+1)<<7 | 0x13
	}
	res, golden, err := f.runOne(prog.Program{Body: body})
	if err != nil {
		t.Fatal(err)
	}

	// One warm commit builds any lazily-grown detector/calculator state.
	f.Calc.BeginBatch()
	f.commitOne(nil, res, golden)

	const runs = 200
	grown := make([]ProgressPoint, len(f.Progress), len(f.Progress)+2*runs+8)
	copy(grown, f.Progress)
	f.Progress = grown

	avg := testing.AllocsPerRun(runs, func() {
		f.Calc.BeginBatch()
		f.commitOne(nil, res, golden)
	})
	if avg != 0 {
		t.Errorf("steady-state commit allocates %.1f objects/run, want 0", avg)
	}
	if f.Det.RawCount != 0 {
		t.Fatalf("benign trace produced %d raw mismatches; the measurement exercised the wrong path", f.Det.RawCount)
	}
}
