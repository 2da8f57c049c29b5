// Package randfuzz is the random-regression baseline: valid random
// instructions with no feedback loop at all (or, in Raw mode, fully
// random 32-bit words, which mostly decode as illegal — the weakest
// possible generator and a useful ablation floor).
//
//chatfuzz:deterministic package
package randfuzz

import (
	"math/rand"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/prog"
)

// Gen is the random-regression generator.
type Gen struct {
	BodyInstrs int
	// Raw switches to uniformly random 32-bit words instead of
	// ISA-aware random instructions.
	Raw bool

	rng *rand.Rand
}

// New returns a random-regression generator.
func New(seed int64, bodyInstrs int) *Gen {
	return &Gen{BodyInstrs: bodyInstrs, rng: rand.New(rand.NewSource(seed))}
}

// Reseed restarts the generator's random stream at seed: afterwards it
// generates exactly what New(seed, ...) would. The source is reseeded in
// place, so a reseed allocates nothing.
func (g *Gen) Reseed(seed int64) { g.rng.Seed(seed) }

// GenerateBatch implements Generator.
func (g *Gen) GenerateBatch(n int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		if g.Raw {
			body := make([]uint32, g.BodyInstrs)
			for j := range body {
				body[j] = g.rng.Uint32()
			}
			out[i] = prog.Program{Body: body}
		} else {
			out[i] = prog.Program{Body: randinst.Program(g.rng, g.BodyInstrs)}
		}
	}
	return out
}

// Feedback implements Generator (random regression ignores feedback).
func (g *Gen) Feedback([]cov.Scores) {}
