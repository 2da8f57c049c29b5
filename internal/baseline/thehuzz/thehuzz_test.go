package thehuzz

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
)

func TestSeedsBeforeFeedback(t *testing.T) {
	g := New(1, 24)
	progs := g.GenerateBatch(8)
	if len(progs) != 8 {
		t.Fatalf("batch = %d", len(progs))
	}
	for i, p := range progs {
		if len(p.Body) != 24 {
			t.Errorf("program %d length %d, want 24", i, len(p.Body))
		}
		for _, w := range p.Body {
			if !isa.Decode(w).Valid() {
				t.Errorf("fresh seed contains invalid word %#08x", w)
			}
		}
	}
}

func TestFeedbackGrowsPool(t *testing.T) {
	g := New(2, 16)
	g.GenerateBatch(4)
	scores := []cov.Scores{
		{Incremental: 3}, {Incremental: 0}, {Incremental: 7}, {Incremental: 0},
	}
	g.Feedback(scores)
	if len(g.pool) != 2 {
		t.Errorf("pool = %d, want 2 (only improving inputs)", len(g.pool))
	}
}

// TestPoolBounded: 40 rounds of four improving inputs offer 160
// entries, past PoolCap.
func TestPoolBounded(t *testing.T) {
	g := New(3, 8)
	for round := 0; round < 40; round++ {
		g.GenerateBatch(4)
		g.Feedback([]cov.Scores{{Incremental: 1}, {Incremental: 2}, {Incremental: 3}, {Incremental: 4}})
	}
	if len(g.pool) != PoolCap {
		t.Errorf("pool %d after 160 admissions, want the cap %d", len(g.pool), PoolCap)
	}
}

// TestMutantsDeriveFromPool drives mutate on every pool entry, since a
// batch draws fresh seeds as well as mutants.
func TestMutantsDeriveFromPool(t *testing.T) {
	g := New(4, 16)
	g.GenerateBatch(2)
	g.Feedback([]cov.Scores{{Incremental: 5}, {Incremental: 5}})
	if len(g.pool) != 2 {
		t.Fatalf("pool = %d, want 2", len(g.pool))
	}
	for i := 0; i < 16; i++ {
		if body := g.mutate(g.pool[i%2].Body); len(body) == 0 {
			t.Error("mutant has empty body")
		}
	}
}

func TestFeedbackLengthMismatchIgnored(t *testing.T) {
	g := New(5, 8)
	g.GenerateBatch(4)
	g.Feedback([]cov.Scores{{Incremental: 1}}) // wrong length: ignored
	if len(g.pool) != 0 {
		t.Error("mismatched feedback must be ignored")
	}
}

func TestStateRoundTripPreservesPool(t *testing.T) {
	g := New(1, 12)
	progs := g.GenerateBatch(8)
	scores := make([]cov.Scores, len(progs))
	for i := range scores {
		scores[i] = cov.Scores{Incremental: i} // entries 1..7 join the pool
	}
	g.Feedback(scores)
	if len(g.pool) == 0 {
		t.Fatal("pool empty after positive feedback")
	}

	// A checkpoint encodes the State view and restores it through
	// AdoptPool.
	raw, err := json.Marshal(g.State())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	g2 := New(99, 12)
	g2.AdoptPool(st.Round, st.Pool)
	if !reflect.DeepEqual(g2.State(), g.State()) {
		t.Fatalf("restored state differs: %d entries at round %d, want %d at round %d",
			len(g2.pool), g2.round, len(g.pool), g.round)
	}

	// Reseeded generators with identical state produce identical batches.
	g.Reseed(7)
	g2.Reseed(7)
	if a, b := g.GenerateBatch(6), g2.GenerateBatch(6); !reflect.DeepEqual(a, b) {
		t.Fatal("batches differ after identical reseed")
	}
}

// TestReseedInPlaceMatchesFresh: a used generator, once reseeded, emits
// what a fresh generator of that seed and the same pool emits, for
// several seeds and while its pool grows; a reseed allocates nothing.
func TestReseedInPlaceMatchesFresh(t *testing.T) {
	used := New(1, 12)
	for i, seed := range []int64{0, 7, -3, 1 << 40, 7} {
		batch := used.GenerateBatch(6)
		scores := make([]cov.Scores, len(batch))
		scores[i%len(scores)].Incremental = i + 1
		used.Feedback(scores)

		used.Reseed(seed)
		fresh := New(seed, 12)
		st := used.State()
		fresh.AdoptPool(st.Round, st.Pool)
		if got, want := used.GenerateBatch(8), fresh.GenerateBatch(8); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (pool %d): reseeded generator diverges from a fresh one", seed, len(used.pool))
		}
	}
	if len(used.pool) == 0 {
		t.Fatal("the pool never grew; the mutation path went untested")
	}
	if n := testing.AllocsPerRun(10, func() { used.Reseed(9) }); n != 0 {
		t.Errorf("Reseed allocates %.0f times, want 0", n)
	}
}

// TestSamePool: pools adopted from one slice are the same; a deep copy
// of equal contents, a different score or age, or one pool's own
// admission is not. Only generators with the same pool in the same
// round hold the same state.
func TestSamePool(t *testing.T) {
	src := New(1, 8)
	batch := src.GenerateBatch(6)
	scores := make([]cov.Scores, len(batch))
	for i := range scores {
		scores[i].Incremental = 1 + i%2
	}
	src.Feedback(scores)
	pool := append(slices.Clone(src.State().Pool), PoolEntry{Body: []uint32{}, Score: 1})
	a, b := New(2, 8), New(3, 8)
	a.AdoptPool(4, pool)
	b.AdoptPool(5, pool)
	if !a.SamePool(b) || !b.SamePool(a) {
		t.Fatal("pools adopted from one slice are not the same")
	}
	if reflect.DeepEqual(a.State(), b.State()) {
		t.Error("generators in rounds 4 and 5 hold the same state")
	}
	b.AdoptPool(4, pool)
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("generators that adopted one pool in one round hold different states")
	}
	b.AdoptPool(5, pool)
	c := New(4, 8)
	deep := slices.Clone(pool)
	for i := range deep {
		deep[i].Body = slices.Clone(deep[i].Body)
	}
	c.AdoptPool(5, deep)
	if a.SamePool(c) {
		t.Error("a deep copy shares no body, yet counts as the same pool")
	}
	for _, edit := range []func(*PoolEntry){
		func(e *PoolEntry) { e.Score++ },
		func(e *PoolEntry) { e.Age++ },
		func(e *PoolEntry) { e.Body = e.Body[:len(e.Body)-1] },
	} {
		p := append([]PoolEntry(nil), pool...)
		edit(&p[0])
		b.AdoptPool(5, p)
		if a.SamePool(b) {
			t.Error("pools differing in one entry count as the same")
		}
	}
	b.AdoptPool(5, pool)
	b.GenerateBatch(len(scores))
	b.Feedback(scores)
	if a.SamePool(b) {
		t.Error("a pool that admitted new entries still counts as the same")
	}
}
