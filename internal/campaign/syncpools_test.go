package campaign

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/cov"
)

// referenceSyncPools is syncPools as it stood before the barrier
// stopped copying, verbatim: every pool deep-copied out through State,
// a fresh map and a []byte + string per dedupe key, sort.SliceStable,
// and a deep copy back in through SetState.
func referenceSyncPools(o *Orchestrator) {
	var gens []*huzzArm
	var all []thehuzz.PoolEntry
	seen := make(map[string]bool)
	add := func(e thehuzz.PoolEntry) {
		k := referenceBodyKey(e.Body)
		if !seen[k] {
			seen[k] = true
			all = append(all, e)
		}
	}
	for _, s := range o.shards {
		for _, a := range s.arms {
			if ha, ok := a.(*huzzArm); ok {
				gens = append(gens, ha)
				for _, e := range ha.Gen.State().Pool {
					add(e)
				}
			}
		}
	}
	if len(gens) == 0 {
		return
	}
	for _, s := range o.shards {
		for _, e := range s.found {
			e.Age = o.round + 1
			add(e)
		}
		s.found = nil
	}
	if len(all) == 0 {
		return
	}
	sort.SliceStable(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Age > all[b].Age
	})
	if cap := gens[0].Gen.PoolCap; len(all) > cap {
		all = all[:cap]
	}
	for _, g := range gens {
		g.Gen.SetState(thehuzz.State{Round: o.round + 1, Pool: all})
	}
}

func referenceBodyKey(body []uint32) string {
	buf := make([]byte, 4*len(body))
	for i, w := range body {
		buf[4*i] = byte(w)
		buf[4*i+1] = byte(w >> 8)
		buf[4*i+2] = byte(w >> 16)
		buf[4*i+3] = byte(w >> 24)
	}
	return string(buf)
}

// huzzGens lists the fleet's TheHuzz generators in shard order.
func huzzGens(o *Orchestrator) []*thehuzz.Gen {
	var out []*thehuzz.Gen
	for _, s := range o.shards {
		for _, a := range s.arms {
			if ha, ok := a.(*huzzArm); ok {
				out = append(out, ha.Gen)
			}
		}
	}
	return out
}

// seedBarrier puts a fleet in a pre-barrier state drawn from rng: every
// TheHuzz pool grown by n entries of its own, every shard holding n
// captured programs, with bodies repeated across shards, low
// and tied scores, and the odd empty body.
func seedBarrier(o *Orchestrator, rng *rand.Rand, n int) {
	shared := make([][]uint32, 8)
	for i := range shared {
		shared[i] = randinst.Program(rng, 1+rng.Intn(testBody))
	}
	body := func() []uint32 {
		switch rng.Intn(8) {
		case 0, 1:
			return shared[rng.Intn(len(shared))] // another shard has it too
		case 2:
			return []uint32{}
		}
		return randinst.Program(rng, 1+rng.Intn(2*testBody))
	}
	for _, g := range huzzGens(o) {
		st := g.State()
		for i := 0; i < n; i++ {
			st.Pool = append(st.Pool, thehuzz.PoolEntry{Body: body(), Score: 1 + rng.Intn(4), Age: rng.Intn(o.round + 1)})
		}
		g.SetState(st)
	}
	for _, s := range o.shards {
		for i := 0; i < n; i++ {
			s.found = append(s.found, thehuzz.PoolEntry{Body: body(), Score: 1 + rng.Intn(4)})
		}
	}
}

// TestSyncPoolsMatchesReference: over seeded fleets whose shards hold
// duplicate bodies, captured entries and more entries than
// PoolCap, the barrier leaves every generator with the pool — order,
// scores, ages, body words — the copying implementation left, barrier
// after barrier; and since generators now share pooled bodies, whatever
// one of them does with its next batch leaves the others' pools intact.
func TestSyncPoolsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		got := mustNew(t, Config{Shards: 4, BatchSize: 8, Seed: seed})
		want := mustNew(t, Config{Shards: 4, BatchSize: 8, Seed: seed})
		for round := 0; round < 6; round++ {
			// 4 shards x 60 entries overflow PoolCap = 128 from round 0.
			n := []int{60, 3, 0, 40, 1, 100}[round]
			seedBarrier(got, rand.New(rand.NewSource(seed*100+int64(round))), n)
			seedBarrier(want, rand.New(rand.NewSource(seed*100+int64(round))), n)
			got.syncPools()
			referenceSyncPools(want)
			got.round++
			want.round++

			gg, wg := huzzGens(got), huzzGens(want)
			for i := range wg {
				if g, w := gg[i].State(), wg[i].State(); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d round %d: generator %d holds %d entries (round %d), reference %d (round %d), or they differ",
						seed, round, i, len(g.Pool), g.Round, len(w.Pool), w.Round)
				}
			}
			if round == 0 && len(wg[0].State().Pool) != wg[0].PoolCap {
				t.Fatalf("seed %d: the reference pool holds %d entries, want an overflow truncated to %d",
					seed, len(wg[0].State().Pool), wg[0].PoolCap)
			}

			// Generator 0 mutates, splices and admits; the rest must
			// still hold what the barrier handed them.
			before := gg[1].State()
			gg[0].Reseed(seed)
			batch := gg[0].GenerateBatch(64)
			scores := make([]cov.Scores, len(batch))
			for i := range scores {
				scores[i].Incremental = i % 3
			}
			gg[0].Feedback(scores)
			for i := 1; i < len(gg); i++ {
				if !reflect.DeepEqual(gg[i].State(), before) {
					t.Fatalf("seed %d round %d: generator 0's batch changed generator %d's pool", seed, round, i)
				}
			}
			wg[0].Reseed(seed)
			wg[0].GenerateBatch(64)
			wg[0].Feedback(scores)
		}
		got.Close()
		want.Close()
	}
}

// warmBarrier returns a 4-shard fleet whose TheHuzz pools are full and
// a function that refills the shards' captures the way a round does.
func warmBarrier(tb testing.TB) (*Orchestrator, func()) {
	o, err := New(Config{Shards: 4, BatchSize: 16, Seed: 1}, newRocket, testArms()...)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seedBarrier(o, rng, 128)
	o.syncPools()
	fresh := make([][]uint32, 64)
	for i := range fresh {
		fresh[i] = randinst.Program(rng, testBody)
	}
	k := 0
	return o, func() {
		for _, s := range o.shards {
			for i := 0; i < 2; i++ { // two discoveries a shard a round
				s.found = append(s.found, thehuzz.PoolEntry{Body: fresh[k%len(fresh)], Score: 1 + k%3})
				k++
			}
		}
	}
}

// TestSyncPoolsAllocs pins what a barrier over warm 128-entry pools
// allocates: one string per distinct body entering the dedupe map and
// the visit closure — no body, no key buffer, no pool copy. The parent
// allocated about 2 000 times here.
func TestSyncPoolsAllocs(t *testing.T) {
	o, refill := warmBarrier(t)
	defer o.Close()
	n := testing.AllocsPerRun(20, func() {
		refill()
		o.syncPools()
	})
	// 128 pooled bodies + at most 8 new ones + the closure.
	if n > 160 {
		t.Errorf("a warm barrier allocates %.0f times, want at most 160", n)
	}
}

// BenchmarkCampaignBarrier times the pool sync of a 4-shard fleet with
// warm 128-entry pools: the serial stretch of every round, run on the
// barrier goroutine while every shard is parked.
func BenchmarkCampaignBarrier(b *testing.B) {
	o, refill := warmBarrier(b)
	defer o.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refill()
		o.syncPools()
	}
}

// TestCaptureStaysBounded: a shard keeps the coverage-advancing bodies
// of a batch only for syncPools to drain into the TheHuzz pools. A
// fleet with no TheHuzz arm never drains, so it must capture nothing;
// and TheHuzz admits its own discoveries, so its batches add nothing
// to the capture either. Either leak would grow a shard's capture for
// as long as the campaign runs.
func TestCaptureStaysBounded(t *testing.T) {
	t.Run("no-thehuzz-arm", func(t *testing.T) {
		o, err := New(Config{Shards: 2, BatchSize: 8, Seed: 5}, newRocket, RandInstArm(testBody), RandFuzzArm(testBody))
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		if err := o.RunRounds(6); err != nil {
			t.Fatal(err)
		}
		if o.Coverage() == 0 {
			t.Fatal("the fleet covered nothing; no batch had a body to capture")
		}
		for i, s := range o.shards {
			if len(s.found) != 0 {
				t.Errorf("shard %d holds %d captured bodies after 6 rounds, want none", i, len(s.found))
			}
		}
	})
	t.Run("thehuzz-batches", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
		defer o.Close()
		if err := o.RunRounds(2); err != nil {
			t.Fatal(err)
		}
		others := 0 // bodies the non-TheHuzz arms captured
		for i, s := range o.shards {
			for _, a := range s.arms {
				_, huzz := a.(*huzzArm)
				for b := int64(0); b < 4; b++ {
					a.Reseed(b)
					n := len(s.found)
					s.runBatch(a)
					if huzz && len(s.found) != n {
						t.Errorf("shard %d: a TheHuzz batch captured %d bodies, want none", i, len(s.found)-n)
					}
					if !huzz {
						others += len(s.found) - n
					}
				}
			}
		}
		if others == 0 {
			t.Fatal("no other arm's batch captured a body; the check shows nothing")
		}
	})
}
