package engine_test

import (
	"reflect"
	"sync"
	"testing"

	"chatfuzz/internal/engine"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// TestEnginePipelinedRoundsMatchDirectRun: with Inflight > 1 the
// engine holds several undrained rounds at once; draining them in
// submission order must reproduce the allocating reference exactly,
// with and without pool workers running ahead of the committer.
func TestEnginePipelinedRoundsMatchDirectRun(t *testing.T) {
	for _, workers := range []int{0, 2} {
		dut := rocket.New()
		ref := rocket.New()
		e := newEngine(t, dut, workers, engine.Config{Detect: true, Inflight: 3})

		var rounds []*engine.Round
		var batches [][]prog.Program
		for round := 0; round < 3; round++ {
			progs := testProgs(int64(500+10*workers+round), 6, 16)
			batches = append(batches, progs)
			rounds = append(rounds, e.Submit(progs))
		}
		for ri, r := range rounds {
			r.Each(func(i int, o *engine.Outcome) {
				if o.Err != nil {
					t.Fatalf("workers=%d round %d test %d: %v", workers, ri, i, o.Err)
				}
				wantRes, wantGolden := reference(ref, batches[ri][i])
				if o.Res.Cycles != wantRes.Cycles || o.Res.Halted != wantRes.Halted ||
					o.Res.ExitCode != wantRes.ExitCode || o.Res.Regs != wantRes.Regs {
					t.Fatalf("workers=%d round %d test %d: result diverged", workers, ri, i)
				}
				if !reflect.DeepEqual(o.Golden, wantGolden) {
					t.Fatalf("workers=%d round %d test %d: golden trace diverged", workers, ri, i)
				}
			})
		}
		st := e.PipeStats()
		if st.PipelinedRounds == 0 || st.MaxInflight < 2 {
			t.Errorf("workers=%d: window never overlapped (pipelined=%d, depth=%d)",
				workers, st.PipelinedRounds, st.MaxInflight)
		}
	}
}

// TestEngineSubmitPastWindowPanics: the round window is a hard
// contract — submitting past it without draining is caller error.
func TestEngineSubmitPastWindowPanics(t *testing.T) {
	e := newEngine(t, rocket.New(), 0, engine.Config{Inflight: 2})
	r1 := e.Submit(testProgs(1, 2, 8))
	r2 := e.Submit(testProgs(2, 2, 8))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("third Submit into a window of 2 did not panic")
			}
		}()
		e.Submit(testProgs(3, 2, 8))
	}()
	// The window drains normally after the refused Submit.
	for _, r := range []*engine.Round{r1, r2} {
		n := 0
		r.Each(func(int, *engine.Outcome) { n++ })
		if n != 2 {
			t.Errorf("drained %d outcomes, want 2", n)
		}
	}
}

// TestEnginePipelinedSubmitCommitStress is the submit/commit overlap
// race test: many shards, each keeping a full in-flight window against
// a single shared pool worker (maximum steal pressure, every committer
// racing it for its own entries), with the scratch-ownership checker
// armed. Run under -race in CI.
func TestEnginePipelinedSubmitCommitStress(t *testing.T) {
	stop := engine.EnableScratchCheck()

	pool := engine.NewFleetPool(1, nil)
	const shards, rounds, batch, window = 6, 6, 3, 3

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var dut rtl.DUT
			if s%2 == 0 {
				dut = rocket.New()
			} else {
				dut = boom.New()
			}
			e := engine.New(dut, engine.Config{Detect: true, Pool: pool, Inflight: window})
			defer e.Close()
			var live []*engine.Round
			drain := func() {
				r := live[0]
				live = live[:copy(live, live[1:])]
				got := 0
				r.Each(func(i int, o *engine.Outcome) {
					if o.Err == nil && o.Res.Cycles > 0 {
						got++
					}
				})
				if got != batch {
					t.Errorf("shard %d: %d/%d outcomes", s, got, batch)
				}
			}
			for round := 0; round < rounds; round++ {
				if len(live) == window {
					drain()
				}
				live = append(live, e.Submit(testProgs(int64(7000+100*s+round), batch, 10)))
			}
			for len(live) > 0 {
				drain()
			}
		}(s)
	}
	wg.Wait()

	st := pool.Stats()
	pool.Close()
	if st.Executed+st.Helped != st.Submitted {
		t.Errorf("executed %d + helped %d != submitted %d", st.Executed, st.Helped, st.Submitted)
	}
	for _, v := range stop() {
		t.Errorf("scratch ownership violated: %s", v)
	}
}
