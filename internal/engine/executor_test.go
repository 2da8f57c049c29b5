package engine

// White-box tests of the single executor: the sizing rule, and the two
// properties of a worker-less pool that a wide fleet's flat memory
// rests on.

import (
	"math/rand"
	"runtime"
	"testing"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

// TestSpareWorkersSizing: the pool gets the cores the committers leave
// over, and none when there are none.
func TestSpareWorkersSizing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct{ procs, committers, want int }{
		{8, 1, 7},  // lone fuzzer
		{8, 4, 4},  // fleet with spare cores
		{4, 4, 0},  // one core per shard
		{2, 16, 0}, // more shards than cores: floor, never negative
		{1, 1, 0},
	} {
		runtime.GOMAXPROCS(tc.procs)
		if got := SpareWorkers(tc.committers); got != tc.want {
			t.Errorf("GOMAXPROCS=%d, %d committers: SpareWorkers = %d, want %d",
				tc.procs, tc.committers, got, tc.want)
		}
	}
}

func randomProgs(rng *rand.Rand, n, body int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		out[i] = prog.Program{Body: randinst.Program(rng, body)}
	}
	return out
}

// TestZeroWorkerPoolHoldsOneOutcome: with no pool workers the
// committer executes entry i, commits it, then executes entry i+1 — so
// an engine never holds more than one executed-but-uncommitted
// outcome, its free lists never grow past one coverage set and one
// trace buffer of each kind, and the pool retains no drained round.
// This is the property peak RSS of a many-shard fleet rests on; with
// workers the bound is the round size instead.
func TestZeroWorkerPoolHoldsOneOutcome(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pool := NewFleetPool(0, nil)
	defer pool.Close()
	engines := []*Engine{
		New(rocket.New(), Config{Detect: true, Pool: pool}),
		New(rocket.New(), Config{Detect: true, Pool: pool}),
	}
	for round := 0; round < 6; round++ {
		// Both engines' rounds are live in the pool at once: each must
		// still wait for its own Each.
		var rounds []*Round
		for _, e := range engines {
			rounds = append(rounds, e.Submit(randomProgs(rng, 8, 12)))
		}
		for _, r := range rounds {
			r.Each(func(i int, o *Outcome) {
				if got := int(r.next.Load()); got != i+1 {
					t.Fatalf("committing entry %d with %d entries claimed: the committer ran ahead", i, got)
				}
			})
		}
	}
	for _, e := range engines {
		sh := e.sh
		if n := len(sh.sets.items); n > 1 {
			t.Errorf("coverage-set free list holds %d sets, want <= 1", n)
		}
		if n := len(sh.traces.items); n > 1 {
			t.Errorf("trace free list holds %d buffers, want <= 1", n)
		}
		if n := len(sh.goldens.items); n > 1 {
			t.Errorf("golden free list holds %d buffers, want <= 1", n)
		}
		if n := len(sh.pool.live); n != 0 {
			t.Errorf("pool still tracks %d rounds after every round drained", n)
		}
	}
	if st := pool.Stats(); st.Helped != st.Submitted || st.Executed != 0 {
		t.Errorf("worker-less pool stats %+v: every entry must be committer-run", st)
	}
}

// TestPoolRetiresDrainedRounds: a pool with workers tracks exactly the
// rounds in flight — one per engine at most, and a drained round
// leaves the live set at once, so an engine's reused Round never
// appears twice and the set cannot grow with the length of the
// campaign.
func TestPoolRetiresDrainedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pool := NewFleetPool(2, nil)
	defer pool.Close()
	e1 := New(rocket.New(), Config{Pool: pool})
	e2 := New(rocket.New(), Config{Pool: pool})
	live := func() int {
		pool.ps.mu.Lock()
		defer pool.ps.mu.Unlock()
		return len(pool.ps.live)
	}
	for round := 0; round < 8; round++ {
		r1 := e1.Submit(randomProgs(rng, 4, 10))
		r2 := e2.Submit(randomProgs(rng, 4, 10))
		if n := live(); n != 2 {
			t.Fatalf("round %d: %d live rounds with two submitted", round, n)
		}
		r1.Each(func(int, *Outcome) {})
		if n := live(); n != 1 {
			t.Fatalf("round %d: %d live rounds after draining one of two", round, n)
		}
		r2.Each(func(int, *Outcome) {})
	}
	if n := live(); n != 0 {
		t.Errorf("%d rounds still live after every round drained", n)
	}
	if st := pool.Stats(); st.Executed+st.Helped != st.Submitted {
		t.Errorf("executed %d + helped %d != submitted %d", st.Executed, st.Helped, st.Submitted)
	}
}

// TestEngineSecondSubmitBeforeEachPanics: an engine has one round —
// submitting again before Each has drained it is caller error.
func TestEngineSecondSubmitBeforeEachPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := NewFleetPool(0, nil)
	defer pool.Close()
	e := New(rocket.New(), Config{Pool: pool})
	r := e.Submit(randomProgs(rng, 2, 8))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Submit before Each did not panic")
			}
		}()
		e.Submit(randomProgs(rng, 2, 8))
	}()
	// The refused Submit left the live round intact, and once it is
	// drained the engine submits again.
	for round := 0; round < 2; round++ {
		n := 0
		r.Each(func(int, *Outcome) { n++ })
		if n != 2 {
			t.Fatalf("round %d drained %d outcomes, want 2", round, n)
		}
		if round == 0 {
			r = e.Submit(randomProgs(rng, 2, 8))
		}
	}
}
