// Package thehuzz reimplements the TheHuzz baseline (Kande et al.,
// USENIX Security 2022) at the level the ChatFuzz paper compares
// against: an ISA-aware seed generator plus a mutation engine
// (bit/byte flipping, swapping, deleting, cloning, operand and opcode
// mutation) guided by coverage feedback — inputs that achieve new
// coverage points enter the seed pool and are mutated further.
//
// A pooled body is immutable: mutate works on a copy and splice only
// reads, so pools may share bodies (AdoptPool), and State hands out the
// live pool itself, which its reader must not write. Sharing is what
// SamePool sees: a fleet's barrier merge uses it to skip a pool it
// already gathered.
//
//chatfuzz:deterministic package
package thehuzz

import (
	"math/rand"
	"slices"
	"sort"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/prog"
)

// Gen is the TheHuzz-style generator.
type Gen struct {
	// BodyInstrs is the instruction count per test (matched to
	// ChatFuzz for the paper's "same number of instructions" setup).
	BodyInstrs int

	rng   *rand.Rand
	pool  []PoolEntry
	last  []prog.Program
	round int
}

// The generator's configuration, as used in the evaluation.
const (
	// PoolCap bounds the seed pool.
	PoolCap = 128
	// seedFrac is the fraction of each batch drawn as fresh seeds once
	// the pool is non-empty.
	seedFrac = 0.5
	// mutationsPerInput is the number of mutation operators applied to
	// each pool entry when deriving a new input.
	mutationsPerInput = 3
)

// New returns a generator.
func New(seed int64, bodyInstrs int) *Gen {
	return &Gen{BodyInstrs: bodyInstrs, rng: rand.New(rand.NewSource(seed))}
}

// GenerateBatch implements Generator.
func (g *Gen) GenerateBatch(n int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		if len(g.pool) == 0 || g.rng.Float64() < seedFrac {
			out[i] = prog.Program{Body: randinst.Program(g.rng, g.BodyInstrs)}
			continue
		}
		// Prefer higher-scoring pool entries (rank selection over the
		// sorted pool's top half).
		idx := g.rng.Intn((len(g.pool) + 1) / 2)
		out[i] = prog.Program{Body: g.mutate(g.pool[idx].Body)}
	}
	g.last = out
	return out
}

// Feedback implements Generator: inputs that hit new coverage points
// join the pool.
func (g *Gen) Feedback(scores []cov.Scores) {
	g.round++
	if len(scores) != len(g.last) {
		return
	}
	for i, sc := range scores {
		if sc.Incremental > 0 {
			g.pool = append(g.pool, PoolEntry{Body: cloneBody(g.last[i].Body), Score: sc.Incremental, Age: g.round})
		}
	}
	sort.SliceStable(g.pool, func(a, b int) bool {
		if g.pool[a].Score != g.pool[b].Score {
			return g.pool[a].Score > g.pool[b].Score
		}
		return g.pool[a].Age > g.pool[b].Age // prefer recent on ties
	})
	if len(g.pool) > PoolCap {
		g.pool = g.pool[:PoolCap]
	}
}

// Reseed replaces the generator's random stream. The campaign
// orchestrator reseeds arms deterministically before every scheduling
// round, which is what makes checkpoint→resume replay exact: the seed
// is a pure function of (campaign seed, shard, round), so no rng state
// needs to survive a checkpoint. The source is reseeded in place — its
// stream is then a fresh one's — so a reseed allocates nothing.
func (g *Gen) Reseed(seed int64) { g.rng.Seed(seed) }

// PoolEntry is a saved interesting input, in its serializable form.
type PoolEntry struct {
	Body  []uint32
	Score int // incremental coverage when first run
	Age   int
}

// State is the generator's checkpointable state: everything except the
// rng (see Reseed) and the transient last-batch buffer, which is only
// meaningful between a GenerateBatch and its Feedback.
type State struct {
	Round int
	Pool  []PoolEntry
}

// State is a view of the generator's state, best entry first: Pool is
// the live pool, whose entries and bodies must not be written. AdoptPool
// restores it.
func (g *Gen) State() State {
	return State{Round: g.round, Pool: g.pool}
}

func cloneBody(b []uint32) []uint32 { return append(make([]uint32, 0, len(b)), b...) }

// SamePool reports whether g's pool is h's entry for entry: the same
// bodies (by identity, as AdoptPool shares them), scores and ages.
func (g *Gen) SamePool(h *Gen) bool {
	return slices.EqualFunc(g.pool, h.pool, func(a, b PoolEntry) bool {
		return a.Score == b.Score && a.Age == b.Age && len(a.Body) == len(b.Body) &&
			(len(a.Body) == 0 || &a.Body[0] == &b.Body[0])
	})
}

// AdoptPool sets the generator's round and pool: the generator copies
// the entries and shares their bodies, which nobody may write afterwards.
func (g *Gen) AdoptPool(round int, pool []PoolEntry) {
	g.round = round
	g.pool = append(g.pool[:0], pool...)
	g.last = nil
}

// mutate derives a new body by applying mutationsPerInput random
// mutation operators to a copy. The operator mix is validity-biased,
// as in TheHuzz: most mutations stay at instruction granularity
// (operand/opcode rewrites, swaps, clones, splices), with occasional
// raw bit/byte flips.
func (g *Gen) mutate(body []uint32) []uint32 {
	out := make([]uint32, len(body))
	copy(out, body)
	for k := 0; k < mutationsPerInput; k++ {
		if len(out) == 0 {
			out = append(out, randinst.Random(g.rng))
			continue
		}
		switch g.rng.Intn(10) {
		case 0: // bit or byte flip (raw)
			i := g.rng.Intn(len(out))
			if g.rng.Intn(2) == 0 {
				out[i] ^= 1 << uint(g.rng.Intn(32))
			} else {
				out[i] ^= 0xFF << uint(8*g.rng.Intn(4))
			}
		case 1: // operand mutation (keep the opcode)
			i := g.rng.Intn(len(out))
			if inst := isa.Decode(out[i]); inst.Valid() {
				out[i] = randinst.RandomWithOp(g.rng, inst.Op)
			} else {
				out[i] = randinst.Random(g.rng)
			}
		case 2: // swap two instructions
			i, j := g.rng.Intn(len(out)), g.rng.Intn(len(out))
			out[i], out[j] = out[j], out[i]
		case 3: // delete one instruction
			if len(out) > 1 {
				i := g.rng.Intn(len(out))
				out = append(out[:i], out[i+1:]...)
			}
		case 4: // clone one instruction to another position
			i, j := g.rng.Intn(len(out)), g.rng.Intn(len(out))
			out[j] = out[i]
		case 5, 6: // operand mutation (keep the opcode)
			i := g.rng.Intn(len(out))
			if inst := isa.Decode(out[i]); inst.Valid() {
				out[i] = randinst.RandomWithOp(g.rng, inst.Op)
			} else {
				out[i] = randinst.Random(g.rng)
			}
		case 7, 8: // opcode mutation (fresh valid instruction)
			i := g.rng.Intn(len(out))
			out[i] = randinst.Random(g.rng)
		case 9: // splice: crossover with another pool entry
			if len(g.pool) > 0 {
				other := g.pool[g.rng.Intn(len(g.pool))].Body
				if len(other) > 0 {
					cut := g.rng.Intn(len(out))
					keep := out[:cut]
					tail := other[g.rng.Intn(len(other)):]
					merged := append(append([]uint32{}, keep...), tail...)
					if len(merged) > g.BodyInstrs*2 {
						merged = merged[:g.BodyInstrs*2]
					}
					if len(merged) > 0 {
						out = merged
					}
				}
			}
		}
	}
	return out
}
