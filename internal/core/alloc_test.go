package core

import (
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/engine/enginetest"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/trace"
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
	f := NewFuzzer(randfuzz.New(3, 16), dut, Options{Pool: enginetest.Pool(t), BatchSize: 4, Detect: true})
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
	f.commitOne(nil, &res, golden, 0)

	const runs = 200
	grown := make([]ProgressPoint, len(f.Progress), len(f.Progress)+2*runs+8)
	copy(grown, f.Progress)
	f.Progress = grown

	avg := testing.AllocsPerRun(runs, func() {
		f.Calc.BeginBatch()
		f.commitOne(nil, &res, golden, 0)
	})
	if avg != 0 {
		t.Errorf("steady-state commit allocates %.1f objects/run, want 0", avg)
	}
	if f.Det.RawCount != 0 {
		t.Fatalf("benign trace produced %d raw mismatches; the measurement exercised the wrong path", f.Det.RawCount)
	}

	// A divergence in an existing cluster allocates nothing either: the
	// signature is looked up from the detector's own byte buffer, and a
	// string is made only for a cluster seen for the first time.
	bad := append([]trace.Entry(nil), res.Trace...)
	last := &bad[len(bad)-1]
	last.RdValid, last.Rd, last.RdVal = true, 7, 99
	res.Trace = bad
	f.Calc.BeginBatch()
	f.commitOne(nil, &res, golden, 0)
	avg = testing.AllocsPerRun(runs, func() {
		f.Calc.BeginBatch()
		f.commitOne(nil, &res, golden, 0)
	})
	if avg != 0 {
		t.Errorf("commit of a repeated divergence allocates %.1f objects/run, want 0", avg)
	}
	if f.Det.RawCount != runs+2 || len(f.Det.Unique()) != 1 {
		t.Fatalf("repeated divergence: %d raw in %d clusters, want %d in 1", f.Det.RawCount, len(f.Det.Unique()), runs+2)
	}
}
