package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// arenaTape builds a tape through every taped op in a (nil: the heap),
// over parameters drawn from a fixed seed — detached ones when frozen —
// runs Backward unless frozen, and returns copies of every node's Data
// and Grad and every parameter's Grad, in a fixed order.
func arenaTape(a *Arena, frozen bool) [][]float64 {
	rng := rand.New(rand.NewSource(41))
	const v, d, heads = 10, 8, 2
	emb, g, b := randParam(rng, v, d), randParam(rng, 1, d), randParam(rng, 1, d)
	wqkv, bqkv, head := randParam(rng, d, 3*d), randParam(rng, 1, 3*d), randParam(rng, d, v)
	params := []*Tensor{emb, g, b, wqkv, bqkv, head}
	if frozen {
		for _, p := range params {
			p.Detach()
		}
	}
	offs, rows := []int{0, 3, 7}, []int{1, 2, 5, 6}

	x := Embedding(a, emb, []int{1, 4, 2, 9, 0, 4, 7})
	h := LayerNorm(x, g, b)
	qkv := AddBias(MatMul(h, wqkv), bqkv)
	att := CausalSelfAttention(qkv, heads, offs, nil)
	y := GELU(Add(x, att))
	z := Add(GatherRows(y, rows), CausalSelfAttention(qkv, heads, offs, rows))
	logits := MatMul(z, head)
	ce := CrossEntropy(logits, []int{3, -1, 4, 0})
	lp := GatherLogSoftmax(logits, []int{2, 5, 5, 8})
	e := Exp(Clamp(lp, -3, 0))
	s := Sub(Mul(e, Square(lp)), Scale(lp, -0.5))
	m := Min(s, lp)
	loss := Add(Add(ce, Mean(m)), Scale(Sum(Square(y)), 1e-3))
	nodes := []*Tensor{x, h, qkv, att, y, z, logits, ce, lp, e, s, m, loss}
	if !frozen {
		Backward(loss)
	}

	var out [][]float64
	for _, n := range nodes {
		if n.arena != a {
			panic("arenaTape: a result does not live in its tape's arena")
		}
		out = append(out, append([]float64(nil), n.Data...), append([]float64(nil), n.Grad...))
	}
	for _, p := range params {
		out = append(out, append([]float64(nil), p.Grad...))
	}
	return out
}

// TestArenaMatchesHeapBitExact: a tape in an arena computes the bits it
// computes on the heap, forward and backward, also on memory a previous
// tape left dirty. The tape runs on the heap, then twice through one
// arena with a Reset between, the second time in the first's chunks.
func TestArenaMatchesHeapBitExact(t *testing.T) {
	for _, frozen := range []bool{false, true} {
		want := arenaTape(nil, frozen)
		var a Arena
		for run := 0; run < 2; run++ {
			if run > 0 {
				a.Reset()
			}
			chunks := append([][]float64(nil), a.chunks...)
			got := arenaTape(&a, frozen)
			if run > 0 && (len(a.chunks) != len(chunks) || &a.chunks[0][0] != &chunks[0][0]) {
				t.Fatalf("frozen=%v: the second tape did not run in the first's chunks", frozen)
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("frozen=%v run %d: buffer %d has %d elements, on the heap %d", frozen, run, i, len(got[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("frozen=%v run %d: buffer %d element %d = %x, on the heap %x",
							frozen, run, i, j, math.Float64bits(got[i][j]), math.Float64bits(want[i][j]))
					}
				}
			}
		}
	}
}

// TestArenaReuse: a tape that runs past an arena's last chunk adds one,
// of arenaChunk floats or of the request if that is larger; after a
// Reset the same tape allocates nothing, and every slice is zeroed and
// capped at its length.
func TestArenaReuse(t *testing.T) {
	var a Arena
	tape := func() {
		for _, n := range []int{arenaChunk - 10, 100, 2 * arenaChunk, 5} {
			s := a.floats(n)
			if len(s) != n || cap(s) != n {
				t.Fatalf("floats(%d): len %d cap %d", n, len(s), cap(s))
			}
			for i := range s {
				if s[i] != 0 {
					t.Fatalf("floats(%d): element %d is %v, not zero", n, i, s[i])
				}
				s[i] = 1
			}
		}
		a.Reset()
	}
	tape()
	var sizes []int
	for _, c := range a.chunks {
		sizes = append(sizes, len(c))
	}
	if want := []int{arenaChunk, arenaChunk, 2 * arenaChunk, arenaChunk}; !slices.Equal(sizes, want) {
		t.Fatalf("chunks of %v floats, want %v", sizes, want)
	}
	if allocs := testing.AllocsPerRun(5, tape); allocs != 0 {
		t.Errorf("a tape the arena holds allocated %v times", allocs)
	}
}
