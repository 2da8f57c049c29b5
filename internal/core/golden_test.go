package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"slices"
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/ml/ppo"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

// captureSink is a RolloutSink that keeps what Feedback hands over.
type captureSink struct{ rolls []*ppo.Rollout }

func (s *captureSink) StepRollouts(rolls []*ppo.Rollout) ppo.Stats {
	s.rolls = rolls
	return ppo.Stats{}
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashBodies(h hash.Hash, progs []prog.Program) {
	for _, p := range progs {
		hashU64(h, uint64(len(p.Body)))
		for _, w := range p.Body {
			hashU64(h, uint64(w))
		}
	}
}

func hashRollouts(h hash.Hash, rolls []*ppo.Rollout) {
	hashU64(h, uint64(len(rolls)))
	for _, r := range rolls {
		hashU64(h, uint64(len(r.Tokens)))
		for _, id := range r.Tokens {
			hashU64(h, uint64(id))
		}
		hashU64(h, uint64(r.PromptN))
		for _, lp := range r.LogpOld {
			hashU64(h, math.Float64bits(lp))
		}
		for _, v := range r.Values {
			hashU64(h, math.Float64bits(v))
		}
	}
}

const goldenBatch = 64

// goldenGenerators returns, at one seed over the shared pretrained
// pipeline, a frozen generator and a replica generator over the same
// weights whose rollouts land in the returned sink.
func goldenGenerators() (frozen, replica *LLMGenerator, sink *captureSink) {
	p := pretrainedPipeline()
	bins := rocket.New().Space().NumBins()
	sink = &captureSink{}
	return NewLLMGenerator(p, bins, 77), NewReplicaGenerator(p, p.Model, sink, bins, 77), sink
}

// TestGoldenGenerateBatch pins the campaign's generation path bit for
// bit: 64 programs of GenerateBatch from a frozen generator and from a
// replica generator with a capturing sink — bodies, for the replica
// every rollout's tokens, prompt length and the bits of its
// log-probabilities and values — and the generator's next RNG draw.
// The constants were recorded on the sampler that ran the LM head and
// the value dot at every position and built a rollout for every
// generation, frozen or not; CI runs the test under GOMAXPROCS=1 and 4.
func TestGoldenGenerateBatch(t *testing.T) {
	const (
		wantFrozen  = "78325fc101793f3520f0eb772351627049af71ca86ea9d7ed0b10a18e3eb7d78"
		wantReplica = "f6dddff974bd50334db77baee6a4c7d75b1fd04d1218891250eed0395bf54ff2"
	)
	frozen, replica, sink := goldenGenerators()

	h := sha256.New()
	hashBodies(h, frozen.GenerateBatch(goldenBatch))
	frozen.Feedback(make([]cov.Scores, goldenBatch))
	hashU64(h, frozen.rng.Uint64())
	if got := hex.EncodeToString(h.Sum(nil)); got != wantFrozen {
		t.Errorf("frozen generator: sha256 %s, want %s", got, wantFrozen)
	}

	h = sha256.New()
	hashBodies(h, replica.GenerateBatch(goldenBatch))
	replica.Feedback(make([]cov.Scores, goldenBatch))
	hashRollouts(h, sink.rolls)
	hashU64(h, replica.rng.Uint64())
	if got := hex.EncodeToString(h.Sum(nil)); got != wantReplica {
		t.Errorf("replica generator: sha256 %s, want %s", got, wantReplica)
	}
}

// TestFrozenGeneratorMatchesRecording: whether a generator records
// rollout statistics changes neither the programs it emits nor where
// it leaves its RNG, and a frozen generator holds no rollout.
func TestFrozenGeneratorMatchesRecording(t *testing.T) {
	frozen, replica, sink := goldenGenerators()
	for round := 0; round < 2; round++ {
		a, b := frozen.GenerateBatch(goldenBatch), replica.GenerateBatch(goldenBatch)
		for i := range a {
			if !slices.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("round %d program %d: frozen %x, recording %x", round, i, a[i].Body, b[i].Body)
			}
		}
		if n := len(frozen.lastRolls); n != 0 {
			t.Errorf("round %d: frozen generator holds %d rollouts, want 0", round, n)
		}
		frozen.Feedback(make([]cov.Scores, goldenBatch))
		replica.Feedback(make([]cov.Scores, goldenBatch))
		if len(sink.rolls) == 0 {
			t.Fatalf("round %d: recording generator delivered no rollouts", round)
		}
	}
	if a, b := frozen.rng.Uint64(), replica.rng.Uint64(); a != b {
		t.Errorf("next RNG draw differs: frozen %d, recording %d", a, b)
	}
}
