package randfuzz

import (
	"reflect"
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
)

func TestValidModeEmitsDecodableWords(t *testing.T) {
	g := New(1, 24)
	for _, p := range g.GenerateBatch(16) {
		if len(p.Body) != 24 {
			t.Fatalf("body length %d", len(p.Body))
		}
		for _, w := range p.Body {
			if !isa.Decode(w).Valid() {
				t.Fatalf("valid-mode generator emitted invalid %#08x", w)
			}
		}
	}
}

func TestRawModeEmitsMostlyInvalidWords(t *testing.T) {
	g := New(2, 64)
	g.Raw = true
	invalid, total := 0, 0
	for _, p := range g.GenerateBatch(16) {
		invalid += isa.CountInvalid(p.Body)
		total += len(p.Body)
	}
	if frac := float64(invalid) / float64(total); frac < 0.5 {
		t.Errorf("raw mode only %.0f%% invalid; expected the vast majority", 100*frac)
	}
}

func TestFeedbackIsIgnored(t *testing.T) {
	g := New(4, 8)
	a := g.GenerateBatch(4)
	g.Feedback([]cov.Scores{{Incremental: 100}})
	b := g.GenerateBatch(4)
	// Deterministic stream continues regardless of feedback.
	if len(a) != 4 || len(b) != 4 {
		t.Fatal("batch sizes wrong")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := New(7, 16).GenerateBatch(4)
	b := New(7, 16).GenerateBatch(4)
	for i := range a {
		for j := range a[i].Body {
			if a[i].Body[j] != b[i].Body[j] {
				t.Fatal("same seed produced different programs")
			}
		}
	}
}

// TestReseedInPlaceMatchesFresh: a used generator, once reseeded, emits
// what New(seed) emits, in both modes and for several seeds.
func TestReseedInPlaceMatchesFresh(t *testing.T) {
	for _, raw := range []bool{false, true} {
		used := New(1, 16)
		used.Raw = raw
		for _, seed := range []int64{0, 7, -3, 1 << 40, 7} {
			used.GenerateBatch(3)
			used.Reseed(seed)
			fresh := New(seed, 16)
			fresh.Raw = raw
			if got, want := used.GenerateBatch(5), fresh.GenerateBatch(5); !reflect.DeepEqual(got, want) {
				t.Fatalf("raw=%v seed %d: reseeded generator diverges from a fresh one", raw, seed)
			}
		}
	}
}
