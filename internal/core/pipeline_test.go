package core

import (
	"reflect"
	"testing"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/rtl/rocket"
)

// TestPipelinedRunMatchesUnpipelined: RunBatches and RunTests with an
// in-flight window must commit the exact accounting stream of the
// strictly alternating loop — same trajectory points, same test
// counts, same detector totals — for a feedback-free generator fed the
// same seed. Uses a test budget that does not divide the batch size,
// so the windowed path's final-batch clamping is exercised too.
func TestPipelinedRunMatchesUnpipelined(t *testing.T) {
	type result struct {
		progress []ProgressPoint
		tests    int
		raw      int
		pipes    int64
	}
	run := func(inflight int, tests int) result {
		f := NewFuzzer(randfuzz.New(7, 12), rocket.New(), Options{
			BatchSize: 5, Detect: true, Inflight: inflight,
		})
		defer f.Close()
		if tests > 0 {
			f.RunTests(tests)
		} else {
			f.RunBatches(4)
		}
		st, _ := f.EngineStats()
		return result{f.Progress, f.Tests, f.Det.RawCount, st.PipelinedRounds}
	}
	for _, tests := range []int{0, 23} {
		want := run(1, tests)
		got := run(3, tests)
		if got.tests != want.tests {
			t.Fatalf("tests=%d: pipelined ran %d tests, serial %d", tests, got.tests, want.tests)
		}
		if !reflect.DeepEqual(got.progress, want.progress) {
			t.Fatalf("tests=%d: pipelined trajectory diverged from the serial loop", tests)
		}
		if got.raw != want.raw {
			t.Fatalf("tests=%d: detector saw %d raw mismatches pipelined, %d serial", tests, got.raw, want.raw)
		}
		if got.pipes == 0 {
			t.Errorf("tests=%d: Inflight 3 never overlapped rounds", tests)
		}
		if want.pipes != 0 {
			t.Errorf("tests=%d: Inflight 1 reported %d pipelined rounds", tests, want.pipes)
		}
	}
}
