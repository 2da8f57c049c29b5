package cov

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTestSpace(n int) (*Space, []PointID) {
	s := NewSpace()
	ids := make([]PointID, n)
	for i := range ids {
		ids[i] = s.Define(strings.Repeat("p", 1) + string(rune('a'+i%26)) + string(rune('0'+i/26)))
	}
	return s, ids
}

func TestDefineAndLookup(t *testing.T) {
	s := NewSpace()
	id := s.Define("frontend.icache.miss")
	if got, ok := s.Lookup("frontend.icache.miss"); !ok || got != id {
		t.Errorf("Lookup = (%v,%v), want (%v,true)", got, ok, id)
	}
	if s.NumPoints() != 1 || s.NumBins() != 2 {
		t.Errorf("points=%d bins=%d, want 1, 2", s.NumPoints(), s.NumBins())
	}
}

func TestDuplicateDefinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Define should panic")
		}
	}()
	s := NewSpace()
	s.Define("x")
	s.Define("x")
}

func TestCondRecordsBothBins(t *testing.T) {
	s, ids := newTestSpace(3)
	set := s.NewSet()
	if set.Cond(ids[0], true) != true || set.Cond(ids[0], false) != false {
		t.Error("Cond must return its value")
	}
	set.Cond(ids[1], true)
	if !set.Covered(ids[0], true) || !set.Covered(ids[0], false) {
		t.Error("both bins of point 0 should be covered")
	}
	if !set.Covered(ids[1], true) || set.Covered(ids[1], false) {
		t.Error("point 1 should cover only the true bin")
	}
	if set.Count() != 3 {
		t.Errorf("Count = %d, want 3", set.Count())
	}
	if got, want := set.Percent(), 100*3.0/6.0; got != want {
		t.Errorf("Percent = %v, want %v", got, want)
	}
}

func TestMergeReturnsNewBins(t *testing.T) {
	s, ids := newTestSpace(4)
	a, b := s.NewSet(), s.NewSet()
	a.Cond(ids[0], true)
	a.Cond(ids[1], false)
	b.Cond(ids[1], false) // overlap
	b.Cond(ids[2], true)  // new
	b.Cond(ids[3], false) // new
	if added := a.Merge(b); added != 2 {
		t.Errorf("Merge added = %d, want 2", added)
	}
	if a.Count() != 4 {
		t.Errorf("after merge Count = %d, want 4", a.Count())
	}
	// Merging again adds nothing.
	if added := a.Merge(b); added != 0 {
		t.Errorf("re-merge added = %d, want 0", added)
	}
}

func TestDiffCount(t *testing.T) {
	s, ids := newTestSpace(3)
	a, b := s.NewSet(), s.NewSet()
	a.Cond(ids[0], true)
	a.Cond(ids[1], true)
	b.Cond(ids[1], true)
	if got := a.DiffCount(b); got != 1 {
		t.Errorf("DiffCount = %d, want 1", got)
	}
	if got := b.DiffCount(a); got != 0 {
		t.Errorf("reverse DiffCount = %d, want 0", got)
	}
}

func TestCalculatorBatchSemantics(t *testing.T) {
	s, ids := newTestSpace(8)
	calc := NewCalculator(s)

	calc.BeginBatch()
	r1 := s.NewSet()
	r1.Cond(ids[0], true)
	r1.Cond(ids[1], true)
	sc1 := calc.Score(r1)
	if sc1.Standalone != 2 || sc1.Incremental != 2 || calc.Total().Count() != 2 {
		t.Errorf("sc1 = %+v", sc1)
	}

	// Second entry in the SAME batch: incremental is still measured
	// against the batch-start snapshot (paper: "compared to the total
	// coverage points recorded in the previous batch").
	r2 := s.NewSet()
	r2.Cond(ids[0], true) // already in total, but NOT in snapshot
	r2.Cond(ids[2], true)
	sc2 := calc.Score(r2)
	if sc2.Incremental != 2 {
		t.Errorf("sc2.Incremental = %d, want 2 (vs batch snapshot)", sc2.Incremental)
	}
	if got := calc.Total().Count(); got != 3 {
		t.Errorf("total after sc2 = %d bins, want 3", got)
	}

	// New batch: the snapshot advances.
	calc.BeginBatch()
	r3 := s.NewSet()
	r3.Cond(ids[0], true)
	sc3 := calc.Score(r3)
	if sc3.Incremental != 0 {
		t.Errorf("sc3.Incremental = %d, want 0", sc3.Incremental)
	}
	if sc3.Standalone != 1 {
		t.Errorf("sc3.Standalone = %d, want 1", sc3.Standalone)
	}
}

func TestUncoveredPoints(t *testing.T) {
	s := NewSpace()
	a := s.Define("alpha")
	s.Define("beta")
	set := s.NewSet()
	set.Cond(a, true)
	holes := set.UncoveredPoints()
	if len(holes) != 2 {
		t.Fatalf("holes = %v, want 2 entries", holes)
	}
	joined := strings.Join(holes, ";")
	if !strings.Contains(joined, "alpha [never false]") {
		t.Errorf("missing alpha hole: %v", holes)
	}
	if !strings.Contains(joined, "beta [never evaluated]") {
		t.Errorf("missing beta hole: %v", holes)
	}
}

// Property: Merge is idempotent, commutative in coverage count, and
// Count equals the size of the bin union.
func TestMergeProperties(t *testing.T) {
	s, ids := newTestSpace(20)
	f := func(hitsA, hitsB []uint16) bool {
		a, b := s.NewSet(), s.NewSet()
		ref := map[int]bool{}
		for _, h := range hitsA {
			id := ids[int(h)%len(ids)]
			val := h%2 == 0
			a.Cond(id, val)
			ref[binIndex(id, val)] = true
		}
		for _, h := range hitsB {
			id := ids[int(h)%len(ids)]
			val := h%2 == 0
			b.Cond(id, val)
			ref[binIndex(id, val)] = true
		}
		a.Merge(b)
		return a.Count() == len(ref)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMergeAcrossSpacesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("cross-space merge should panic")
		}
	}()
	s1, _ := newTestSpace(2)
	s2, _ := newTestSpace(2)
	s1.NewSet().Merge(s2.NewSet())
}

func TestCalculatorReport(t *testing.T) {
	s, ids := newTestSpace(2)
	calc := NewCalculator(s)
	calc.BeginBatch()
	r := s.NewSet()
	r.Cond(ids[0], true)
	calc.Score(r)
	rep := calc.Report()
	if !strings.Contains(rep, "1/4") {
		t.Errorf("report = %q", rep)
	}
}

func TestSnapshotLoadRoundTrip(t *testing.T) {
	s, ids := newTestSpace(70) // 140 bins: crosses one word boundary
	a := s.NewSet()
	for i, id := range ids {
		a.Cond(id, i%3 == 0)
	}
	snap := a.Snapshot()

	// Snapshot is a copy, not an alias.
	a.Cond(ids[1], true)
	b := s.NewSet()
	if err := b.LoadSnapshot(snap); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if b.Covered(ids[1], true) {
		t.Error("snapshot aliased the live bitmap")
	}
	for i, id := range ids {
		if b.Covered(id, i%3 == 0) != true {
			t.Errorf("point %d lost in round trip", i)
		}
	}

	if err := b.LoadSnapshot([]uint64{1}); err == nil {
		t.Error("LoadSnapshot accepted wrong-length snapshot")
	}
}

func TestMergeWordsMatchesMerge(t *testing.T) {
	// Two structurally identical but distinct spaces, as two DUT
	// instances produce: Merge panics across them, MergeWords works.
	s1, ids1 := newTestSpace(40)
	s2, ids2 := newTestSpace(40)
	a := s1.NewSet()
	b := s2.NewSet()
	a.Cond(ids1[0], true)
	a.Cond(ids1[5], false)
	b.Cond(ids2[5], false)
	b.Cond(ids2[7], true)

	added, err := a.MergeWords(b.Snapshot())
	if err != nil {
		t.Fatalf("MergeWords: %v", err)
	}
	if added != 1 { // only point 7 true is new
		t.Errorf("added = %d, want 1", added)
	}
	if a.Count() != 3 {
		t.Errorf("count = %d, want 3", a.Count())
	}
	if _, err := a.MergeWords([]uint64{}); err == nil {
		t.Error("MergeWords accepted wrong-length snapshot")
	}
}

func TestCalculatorRestoreTotal(t *testing.T) {
	s, ids := newTestSpace(10)
	c := NewCalculator(s)
	run := s.NewSet()
	run.Cond(ids[0], true)
	run.Cond(ids[1], false)
	c.Score(run)
	snap := c.Total().Snapshot()

	c2 := NewCalculator(s)
	if err := c2.RestoreTotal(snap); err != nil {
		t.Fatalf("RestoreTotal: %v", err)
	}
	if c2.Total().Count() != 2 {
		t.Fatalf("restored count = %d, want 2", c2.Total().Count())
	}
	// A re-scored identical run must show zero incremental coverage:
	// the restore also reset the batch snapshot.
	sc := c2.Score(run)
	if sc.Incremental != 0 {
		t.Errorf("incremental after restore = %d, want 0", sc.Incremental)
	}
	if err := c2.RestoreTotal([]uint64{1, 2, 3}); err == nil {
		t.Error("RestoreTotal accepted wrong-length snapshot")
	}
}
