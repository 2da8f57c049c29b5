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
// budget at zero, with no set-up: committing a test — coverage scoring
// (batch snapshot reuse via Set.CopyFrom), mismatch analysis on a clean
// trace, clock charge — must not grow the heap, so no per-test record
// can grow with the campaign. This is the regression guard for the
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

	// allocs counts every object allocated over a warm-up and a
	// measured pass of runs commits each. AllocsPerRun(runs, ...) would
	// average by integer division and round an amortised append, a few
	// growths in 200 commits, down to zero.
	const runs = 200
	allocs := func() float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < runs; i++ {
				f.Calc.BeginBatch()
				f.commitOne(nil, &res, golden, 0)
			}
		})
	}
	if n := allocs(); n != 0 {
		t.Errorf("%d steady-state commits allocate %.0f objects, want 0", runs, n)
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
	if n := allocs(); n != 0 {
		t.Errorf("%d commits of a repeated divergence allocate %.0f objects, want 0", runs, n)
	}
	if f.Det.RawCount != 2*runs+1 || len(f.Det.Unique()) != 1 {
		t.Fatalf("repeated divergence: %d raw in %d clusters, want %d in 1", f.Det.RawCount, len(f.Det.Unique()), 2*runs+1)
	}
}
