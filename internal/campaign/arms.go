package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
	"chatfuzz/internal/fleetlearn"
	"chatfuzz/internal/ml/nn"
)

// arm is one schedulable generator: a core.Generator the orchestrator
// reseeds deterministically before every round. Because the seed is a
// pure function of (campaign seed, shard, round), no rng state has to
// survive a checkpoint for resumed runs to replay exactly. The one arm
// state a checkpoint carries is the *thehuzz.Gen seed pool every shard
// shares (checkpointFile.Pool).
type arm interface {
	core.Generator
	Reseed(seed int64)
}

// ArmSpec names a generator arm and builds per-shard instances of it.
// Every shard gets its own instance (generators are stateful and not
// goroutine-safe); the bandit's statistics for the arm are global.
type ArmSpec struct {
	// Name identifies the arm in reports.
	Name string

	// sig fingerprints the arm's parameters (body length, model
	// shape). Checkpoints record it, and Resume refuses specs whose
	// signature differs — a resumed fleet with, say, a different body
	// length would silently diverge from the uninterrupted run.
	sig string

	build func(binsTotal int) arm

	// newLearner, when non-nil, replaces build: the arm learns online,
	// backed by a per-shard fleetlearn.Replica. The orchestrator wires
	// every shard's replica into one fleetlearn.Fleet whose weights are
	// averaged and redistributed at each round barrier, and checkpoints
	// the merged weights (checkpoint v3).
	newLearner func(binsTotal int) (arm, *fleetlearn.Replica)

	// model is the pipeline model an LLM arm samples, or starts from and
	// keeps as its KL reference; nil for the mutation arms. Checkpoints
	// record its digest (checkpointFile.Models) outside sig, which
	// CheckFleet compares on an untrained pipeline.
	model *nn.GPT
}

// modelDigest is the SHA-256, in hex, of m's weights: the little-endian
// IEEE-754 bits of every parameter, in Params order.
func modelDigest(m *nn.GPT) string {
	h := sha256.New()
	var buf []byte
	for _, p := range m.Params() {
		buf = buf[:0]
		for _, v := range p.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TheHuzzArm schedules the TheHuzz mutation baseline as an arm. Its
// seed pool is per shard and survives checkpoints.
func TheHuzzArm(bodyInstrs int) ArmSpec {
	return ArmSpec{
		Name:  "thehuzz",
		sig:   fmt.Sprintf("thehuzz/body=%d", bodyInstrs),
		build: func(int) arm { return thehuzz.New(0, bodyInstrs) },
	}
}

// RandInstArm schedules the ISA-aware random-instruction generator
// (the seed generator both baselines share: randfuzz in its valid
// mode) as a stateless arm.
func RandInstArm(bodyInstrs int) ArmSpec {
	return ArmSpec{
		Name:  "randinst",
		sig:   fmt.Sprintf("randinst/body=%d", bodyInstrs),
		build: func(int) arm { return randfuzz.New(0, bodyInstrs) },
	}
}

// RandFuzzArm schedules the raw random-word generator (the ablation
// floor: mostly-illegal words that stress the trap paths).
func RandFuzzArm(bodyInstrs int) ArmSpec {
	return ArmSpec{
		Name: "randfuzz",
		sig:  fmt.Sprintf("randfuzz/body=%d", bodyInstrs),
		build: func(int) arm {
			g := randfuzz.New(0, bodyInstrs)
			g.Raw = true
			return g
		},
	}
}

// LLMArm schedules the trained ChatFuzz model as a *frozen* arm: the
// pipeline's model is shared read-only across every shard — each
// shard's generator samples it through a sampler of its own — and no
// PPO updates run during the campaign. For the paper's full feedback
// loop under sharding, use LearningLLMArm, which gives each shard a
// model replica and keeps learning through deterministic barrier
// averaging; the frozen arm remains the cheaper choice (and the
// baseline the learning arm is measured against in the ledger's
// frozen_lm_fleet and learn_fleet). A reseed restarts the generator's
// random stream in place around the (static) weights.
func LLMArm(p *core.Pipeline) ArmSpec {
	m := p.Model.Cfg
	return ArmSpec{
		Name: "chatfuzz",
		sig: fmt.Sprintf("chatfuzz/ctx=%d,dim=%d,heads=%d,layers=%d,vocab=%d,body=%d",
			m.Ctx, m.Dim, m.Heads, m.Layers, m.Vocab, p.Cfg.BodyInstrs),
		build: func(binsTotal int) arm {
			return core.NewLLMGenerator(p, binsTotal, 0)
		},
		model: p.Model,
	}
}

// LearningLLMArm schedules the ChatFuzz model as an online-learning
// arm — the paper's "model keeps learning from hardware feedback"
// under sharding. Each shard owns a deep-copied replica of the trained
// model; the rollouts behind its generated programs are rewarded with
// the shard's incremental (fleet-new, when sync is on) coverage and
// stepped into the replica by PPO, and at every round barrier the
// orchestrator averages the stepped replicas' weights deterministically
// and redistributes the merge to the whole fleet (internal/fleetlearn).
//
// Checkpoints carry the merged weights, so resumed campaigns replay
// bit-identically; the KL reference model is not checkpointed, only
// the digest of the pipeline model it copies — Resume must be given
// the same trained pipeline the original run used (the same
// requirement LLMArm already has for its sampling weights), and
// refuses another.
// The replica's weights are not part of the arm's own checkpoint state:
// between rounds every shard's replica holds the same merge, so they
// live once, in the checkpoint's fleet-level Learn section. The arm's
// generator owns one reusable sampler bound to the replica's model,
// which barrier publication overwrites in place, so a reseed restarts
// the random stream and nothing else.
func LearningLLMArm(p *core.Pipeline) ArmSpec {
	m := p.Model.Cfg
	return ArmSpec{
		Name: "chatfuzz-learn",
		sig: fmt.Sprintf("chatfuzz-learn/ctx=%d,dim=%d,heads=%d,layers=%d,vocab=%d,body=%d",
			m.Ctx, m.Dim, m.Heads, m.Layers, m.Vocab, p.Cfg.BodyInstrs),
		newLearner: func(binsTotal int) (arm, *fleetlearn.Replica) {
			rep := fleetlearn.NewReplica(p.Model, p.OnlinePPOConfig())
			return core.NewReplicaGenerator(p, rep.Model, rep, binsTotal, 0), rep
		},
		model: p.Model,
	}
}
