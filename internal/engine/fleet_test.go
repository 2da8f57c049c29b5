package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"chatfuzz/internal/engine"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
)

// TestFleetPoolOutcomesMatchDirectRun drives a mixed-design fleet of
// engines over one shared pool and checks every outcome against the
// allocating reference execution — the fleet analogue of
// TestEngineOutcomesMatchDirectRun, proving that workers switching
// designs and committers racing workers for their own entries leave
// every observable result bit-identical.
func TestFleetPoolOutcomesMatchDirectRun(t *testing.T) {
	pool := engine.NewFleetPool(3, nil)
	defer pool.Close()

	duts := []rtl.DUT{rocket.New(), boom.New(), rocket.New(), boom.New()}
	refs := []rtl.DUT{rocket.New(), boom.New(), rocket.New(), boom.New()}
	engines := make([]*engine.Engine, len(duts))
	for i, d := range duts {
		engines[i] = engine.New(d, engine.Config{Detect: true, Pool: pool})
		defer engines[i].Close()
	}

	var wg sync.WaitGroup
	for s := range engines {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				progs := testProgs(int64(500+10*s+round), 6, 18)
				engines[s].Submit(progs).Each(func(i int, o *engine.Outcome) {
					if o.Err != nil {
						t.Errorf("shard %d round %d test %d: build error %v", s, round, i, o.Err)
						return
					}
					wantRes, wantGolden := reference(refs[s], progs[i])
					if o.Res.Cycles != wantRes.Cycles || o.Res.Halted != wantRes.Halted ||
						o.Res.ExitCode != wantRes.ExitCode || o.Res.Regs != wantRes.Regs {
						t.Errorf("shard %d round %d test %d: result diverged from reference", s, round, i)
					}
					if !reflect.DeepEqual(o.Res.Trace, wantRes.Trace) {
						t.Errorf("shard %d round %d test %d: DUT trace diverged", s, round, i)
					}
					if !reflect.DeepEqual(o.Res.Coverage.Snapshot(), wantRes.Coverage.Snapshot()) {
						t.Errorf("shard %d round %d test %d: coverage diverged", s, round, i)
					}
					if !reflect.DeepEqual(o.Golden, wantGolden) {
						t.Errorf("shard %d round %d test %d: golden trace diverged", s, round, i)
					}
				})
			}
		}(s)
	}
	wg.Wait()

	st := pool.Stats()
	if st.Submitted != 4*3*6 {
		t.Errorf("pool saw %d submitted jobs, want %d", st.Submitted, 4*3*6)
	}
	if st.Executed+st.Helped != st.Submitted {
		t.Errorf("executed %d + helped %d != submitted %d", st.Executed, st.Helped, st.Submitted)
	}
}

// TestFleetPoolStealStress is the worker-path race test: many shards ×
// tiny batches, a single pool worker claiming first in, first out and
// so switching between designs, every committer racing it for its own
// round's entries, with the scratch-ownership checker armed, asserting
// no runner, golden memory, coverage set or trace buffer is ever
// observed by two execution contexts concurrently. Run under -race in
// CI.
func TestFleetPoolStealStress(t *testing.T) {
	stop := engine.EnableScratchCheck()
	violations := func() []string { return stop() }

	pool := engine.NewFleetPool(1, nil)
	const shards, rounds, batch = 8, 6, 3

	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Alternate designs shard-by-shard so the lone pool worker
			// re-binds its scratch constantly.
			var dut rtl.DUT
			if s%2 == 0 {
				dut = rocket.New()
			} else {
				dut = boom.New()
			}
			e := engine.New(dut, engine.Config{Detect: true, Pool: pool})
			defer e.Close()
			for round := 0; round < rounds; round++ {
				progs := testProgs(int64(9000+100*s+round), batch, 10)
				got := 0
				e.Submit(progs).Each(func(i int, o *engine.Outcome) {
					if o.Err == nil && o.Res.Cycles > 0 {
						got++
					}
				})
				if got != batch {
					t.Errorf("shard %d round %d: %d/%d outcomes", s, round, got, batch)
				}
			}
		}(s)
	}
	wg.Wait()

	st := pool.Stats()
	pool.Close()
	if st.Executed+st.Helped != st.Submitted {
		t.Errorf("executed %d + helped %d != submitted %d", st.Executed, st.Helped, st.Submitted)
	}
	for _, v := range violations() {
		t.Errorf("scratch ownership violated: %s", v)
	}
}

// TestFleetPoolMatchesPerShardEngines: the same fixed batches produce
// byte-identical coverage and traces whether each engine runs its
// rounds alone on its committer (a worker-less pool) or all engines
// share a pool whose workers claim across them.
func TestFleetPoolMatchesPerShardEngines(t *testing.T) {
	type key struct{ shard, round, i int }
	run := func(pool *engine.FleetPool) map[key][]uint64 {
		out := make(map[key][]uint64)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for s := 0; s < 3; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				e := engine.New(rocket.New(), engine.Config{Pool: pool})
				defer e.Close()
				for round := 0; round < 2; round++ {
					progs := testProgs(int64(40+10*s+round), 5, 14)
					e.Submit(progs).Each(func(i int, o *engine.Outcome) {
						mu.Lock()
						out[key{s, round, i}] = o.Res.Coverage.Snapshot()
						mu.Unlock()
					})
				}
			}(s)
		}
		wg.Wait()
		return out
	}

	alone := engine.NewFleetPool(0, nil)
	defer alone.Close()
	perShard := run(alone)
	pool := engine.NewFleetPool(2, nil)
	defer pool.Close()
	fleet := run(pool)

	if len(perShard) != len(fleet) {
		t.Fatalf("outcome counts differ: per-shard %d, fleet %d", len(perShard), len(fleet))
	}
	for k, want := range perShard {
		if !reflect.DeepEqual(fleet[k], want) {
			t.Errorf("coverage for %+v differs between per-shard and fleet pools", k)
		}
	}
}

// TestFleetPoolCloseSemantics: closing a submitter engine leaves the
// pool running for its siblings, and submitting into a closed pool
// panics loudly.
func TestFleetPoolCloseSemantics(t *testing.T) {
	pool := engine.NewFleetPool(1, nil)
	a := engine.New(rocket.New(), engine.Config{Pool: pool})
	b := engine.New(rocket.New(), engine.Config{Pool: pool})

	a.Close()
	progs := testProgs(77, 3, 10)
	got := 0
	b.Submit(progs).Each(func(i int, o *engine.Outcome) {
		if o.Err == nil {
			got++
		}
	})
	if got != len(progs) {
		t.Fatalf("sibling engine ran %d/%d tests after another engine closed", got, len(progs))
	}
	b.Close()
	pool.Close()

	defer func() {
		if recover() == nil {
			t.Error("Submit on a closed FleetPool did not panic")
		}
	}()
	c := engine.New(rocket.New(), engine.Config{Pool: pool})
	c.Submit(progs)
}

// TestFleetPoolUtilizationStats: the busy clock and worker count a
// benchmark needs for its utilization metric are populated.
func TestFleetPoolUtilizationStats(t *testing.T) {
	pool := engine.NewFleetPool(2, nil)
	defer pool.Close()
	if w := pool.Stats().Workers; w != 2 {
		t.Fatalf("Stats().Workers = %d, want 2", w)
	}
	e := engine.New(rocket.New(), engine.Config{Pool: pool})
	defer e.Close()
	for round := 0; round < 2; round++ {
		// Leave the round to the workers before draining it, so the
		// committer cannot win every claim.
		r := e.Submit(testProgs(int64(round), 8, 16))
		time.Sleep(20 * time.Millisecond)
		r.Each(func(int, *engine.Outcome) {})
	}
	st := pool.Stats()
	if st.WorkerBusy <= 0 {
		t.Error("no busy time accumulated")
	}
	if st.Workers != 2 {
		t.Errorf("stats report %d workers, want 2", st.Workers)
	}
	if s := fmt.Sprintf("%+v", st); s == "" {
		t.Error("stats did not format")
	}
}
