package thehuzz

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
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
	if g.PoolSize() != 2 {
		t.Errorf("pool = %d, want 2 (only improving inputs)", g.PoolSize())
	}
}

func TestPoolBounded(t *testing.T) {
	g := New(3, 8)
	g.PoolCap = 10
	for round := 0; round < 30; round++ {
		g.GenerateBatch(4)
		g.Feedback([]cov.Scores{{Incremental: 1}, {Incremental: 2}, {Incremental: 3}, {Incremental: 4}})
	}
	if g.PoolSize() > 10 {
		t.Errorf("pool %d exceeds cap", g.PoolSize())
	}
}

func TestMutantsDeriveFromPool(t *testing.T) {
	g := New(4, 16)
	g.SeedFrac = 0 // force mutants once the pool is non-empty
	g.GenerateBatch(2)
	g.Feedback([]cov.Scores{{Incremental: 5}, {Incremental: 5}})
	progs := g.GenerateBatch(16)
	for _, p := range progs {
		if len(p.Body) == 0 {
			t.Error("mutant has empty body")
		}
	}
}

func TestFeedbackLengthMismatchIgnored(t *testing.T) {
	g := New(5, 8)
	g.GenerateBatch(4)
	g.Feedback([]cov.Scores{{Incremental: 1}}) // wrong length: ignored
	if g.PoolSize() != 0 {
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
	if g.PoolSize() == 0 {
		t.Fatal("pool empty after positive feedback")
	}

	st := g.State()
	g2 := New(99, 12)
	g2.SetState(st)
	if g2.PoolSize() != g.PoolSize() {
		t.Fatalf("restored pool size %d, want %d", g2.PoolSize(), g.PoolSize())
	}

	// The snapshot must be a deep copy: mutating the restored pool's
	// bodies through further fuzzing must not corrupt the original.
	st.Pool[0].Body[0] = 0xDEADBEEF
	if g.State().Pool[0].Body[0] == 0xDEADBEEF {
		t.Error("State shares body storage with the live pool")
	}

	// Reseeded generators with identical state produce identical batches.
	g.Reseed(7)
	g2.Reseed(7)
	a := g.GenerateBatch(6)
	b := g2.GenerateBatch(6)
	for i := range a {
		if len(a[i].Body) != len(b[i].Body) {
			t.Fatalf("batch %d length mismatch", i)
		}
		for j := range a[i].Body {
			if a[i].Body[j] != b[i].Body[j] {
				t.Fatalf("batch %d word %d differs after identical reseed", i, j)
			}
		}
	}
}

// checkAppendState holds AppendState to its contract on g's current
// pool: the bytes of json.Marshal(State()), appended without touching
// what dst already held, twice.
func checkAppendState(t *testing.T, g *Gen) {
	t.Helper()
	want, err := json.Marshal(g.State())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if got := g.AppendState(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendState(nil) = %s\nwant json.Marshal(State()) = %s", got, want)
	}
	prefix := []byte(`{"x":`)
	for call := 1; call <= 2; call++ {
		got := g.AppendState(append(make([]byte, 0, 8), prefix...))
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("call %d: AppendState onto %q = %s\nwant the prefix, then %s", call, prefix, got, want)
		}
	}
}

func TestAppendStateMatchesMarshal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		round int
		pool  []PoolEntry
	}{
		{"fresh generator", 0, nil},
		{"emptied pool", 7, []PoolEntry{}},
		{"nil and empty bodies", 3, []PoolEntry{{Body: nil, Score: 1, Age: 1}, {Body: []uint32{}, Score: 2, Age: 2}}},
		{"word extremes", 1, []PoolEntry{{Body: []uint32{0, math.MaxUint32, 0x80000000, 19}, Score: math.MaxInt, Age: math.MaxInt32}}},
		{"negative fields", -4, []PoolEntry{{Body: []uint32{1}, Score: -1, Age: -9}, {Body: []uint32{2, 3}, Score: math.MinInt, Age: 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(1, 8)
			g.round, g.pool = tc.round, tc.pool
			checkAppendState(t, g)
		})
	}

	// And on a pool the generator grows itself, checkpointed every
	// round.
	g := New(3, 24)
	for r := 0; r < 6; r++ {
		scores := make([]cov.Scores, len(g.GenerateBatch(16)))
		for i := range scores {
			scores[i].Incremental = (i + r) % 3
		}
		g.Feedback(scores)
		checkAppendState(t, g)
	}
	if g.PoolSize() == 0 {
		t.Fatal("feedback left the pool empty")
	}
}

// FuzzAppendStateMatchesMarshal turns the input into a pool — a round,
// then entries of a score, an age, a body length and that many words,
// for as long as bytes last — and holds AppendState to encoding/json on
// it. Then it adopts an edit of that pool — a score, an age, a body cut
// short, two entries sharing one body, a new round and order, a dropped
// entry — and holds the encoding to encoding/json again.
func FuzzAppendStateMatchesMarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(bytes.Repeat([]byte{0xff}, 8+17+3*4))
	f.Add(append(make([]byte, 8+16), 0, 2, 0, 0, 0, 0, 0, 0, 0, 1))
	entry := append(make([]byte, 16), 4, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0) // a body of three words
	f.Add(append(make([]byte, 8), bytes.Repeat(entry, 5)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) []byte {
			chunk := make([]byte, n)
			data = data[copy(chunk, data):]
			return chunk
		}
		g := New(1, 8)
		g.round = int(int64(binary.LittleEndian.Uint64(next(8))))
		for len(data) > 0 {
			e := PoolEntry{
				Score: int(int64(binary.LittleEndian.Uint64(next(8)))),
				Age:   int(int64(binary.LittleEndian.Uint64(next(8)))),
			}
			if n := int(next(1)[0]) % 34; n > 0 { // 0: a nil body
				e.Body = make([]uint32, n-1)
				for i := range e.Body {
					e.Body[i] = binary.LittleEndian.Uint32(next(4))
				}
			}
			g.pool = append(g.pool, e)
		}
		checkAppendState(t, g)

		var pool []PoolEntry
		for i, e := range g.pool {
			switch i % 5 {
			case 1:
				e.Score++
			case 2:
				e.Age--
			case 3:
				e.Body = e.Body[:len(e.Body)/2]
			case 4:
				continue
			}
			pool = append(pool, e)
			if i%5 == 0 {
				e.Score--
				pool = append(pool, e)
			}
		}
		slices.Reverse(pool)
		g.AdoptPool(g.round+1, pool)
		checkAppendState(t, g)
	})
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
		fresh.SetState(used.State())
		if got, want := used.GenerateBatch(8), fresh.GenerateBatch(8); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (pool %d): reseeded generator diverges from a fresh one", seed, used.PoolSize())
		}
	}
	if used.PoolSize() == 0 {
		t.Fatal("the pool never grew; the mutation path went untested")
	}
	if n := testing.AllocsPerRun(10, func() { used.Reseed(9) }); n != 0 {
		t.Errorf("Reseed allocates %.0f times, want 0", n)
	}
}

// TestSamePool: pools adopted from one slice are the same; a deep copy
// of equal contents, a different score or age, or one pool's own
// admission is not. Only generators with the same pool in the same
// round encode to the same bytes.
func TestSamePool(t *testing.T) {
	src := New(1, 8)
	batch := src.GenerateBatch(6)
	scores := make([]cov.Scores, len(batch))
	for i := range scores {
		scores[i].Incremental = 1 + i%2
	}
	src.Feedback(scores)
	pool := src.State().Pool
	pool = append(pool, PoolEntry{Body: []uint32{}, Score: 1})
	a, b := New(2, 8), New(3, 8)
	a.AdoptPool(4, pool)
	b.AdoptPool(5, pool)
	if !a.SamePool(b) || !b.SamePool(a) {
		t.Fatal("pools adopted from one slice are not the same")
	}
	if bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
		t.Error("generators in rounds 4 and 5 encode the same bytes")
	}
	b.AdoptPool(4, pool)
	if !bytes.Equal(a.AppendState(nil), b.AppendState(nil)) {
		t.Fatal("generators that adopted one pool in one round encode different bytes")
	}
	b.AdoptPool(5, pool)
	c := New(4, 8)
	c.SetState(State{Pool: pool})
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
