package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"chatfuzz/internal/baseline/randfuzz"
	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/core"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/fleetlearn"
	"chatfuzz/internal/prog"
)

// arm is one schedulable generator: a core.Generator the orchestrator
// reseeds deterministically before every round. Because the seed is a
// pure function of (campaign seed, shard, round), no rng state has to
// survive a checkpoint for resumed runs to replay exactly.
type arm interface {
	core.Generator
	Reseed(seed int64)
}

// statefulArm additionally carries checkpoint state beyond the rng:
// TheHuzz's seed pool, which appendCheckpoint writes (each distinct
// pool once) and armRestore reads back.
type statefulArm interface {
	arm
	armRestore(json.RawMessage) error
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
}

// TheHuzzArm schedules the TheHuzz mutation baseline as an arm. Its
// seed pool is per shard and survives checkpoints.
func TheHuzzArm(bodyInstrs int) ArmSpec {
	return ArmSpec{
		Name:  "thehuzz",
		sig:   fmt.Sprintf("thehuzz/body=%d", bodyInstrs),
		build: func(int) arm { return &huzzArm{thehuzz.New(0, bodyInstrs)} },
	}
}

// RandInstArm schedules the ISA-aware random-instruction generator
// (the seed generator both baselines share) as a stateless arm.
func RandInstArm(bodyInstrs int) ArmSpec {
	return ArmSpec{
		Name: "randinst",
		sig:  fmt.Sprintf("randinst/body=%d", bodyInstrs),
		build: func(int) arm {
			return &randInstArm{body: bodyInstrs, rng: rand.New(rand.NewSource(0))}
		},
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
			return &randFuzzArm{g}
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
// frozen_lm_fleet and learn_fleet).
func LLMArm(p *core.Pipeline) ArmSpec {
	m := p.Model.Cfg
	return ArmSpec{
		Name: "chatfuzz",
		sig: fmt.Sprintf("chatfuzz/ctx=%d,dim=%d,heads=%d,layers=%d,vocab=%d,body=%d",
			m.Ctx, m.Dim, m.Heads, m.Layers, m.Vocab, p.Cfg.BodyInstrs),
		build: func(binsTotal int) arm {
			return &llmArm{core.NewLLMGenerator(p, binsTotal, 0)}
		},
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
// Checkpoints (v3) carry the merged weights, so resumed campaigns
// replay bit-identically; the KL reference model is not checkpointed —
// Resume must be given the same trained pipeline the original run used
// (the same requirement LLMArm already has for its sampling weights).
func LearningLLMArm(p *core.Pipeline) ArmSpec {
	m := p.Model.Cfg
	return ArmSpec{
		Name: "chatfuzz-learn",
		sig: fmt.Sprintf("chatfuzz-learn/ctx=%d,dim=%d,heads=%d,layers=%d,vocab=%d,body=%d",
			m.Ctx, m.Dim, m.Heads, m.Layers, m.Vocab, p.Cfg.BodyInstrs),
		newLearner: func(binsTotal int) (arm, *fleetlearn.Replica) {
			rep := fleetlearn.NewReplica(p.Model, p.OnlinePPOConfig())
			return &learnArm{core.NewReplicaGenerator(p, rep.Model, rep, binsTotal, 0)}, rep
		},
	}
}

// recorded wraps a shard's arm to capture, per round, the programs
// that achieved incremental coverage (fleet-new coverage when global
// sync is on). The orchestrator drains them into the shared mutation
// pool at the barrier — EnFuzz-style seed synchronization, so an LLM
// or random discovery becomes mutation fodder for every shard's
// TheHuzz arm. capture stays false when no arm consumes the pool
// (no TheHuzz arm, or sync disabled) and for the TheHuzz arm itself,
// which admits its own discoveries; otherwise found would grow
// unboundedly with nothing ever draining it.
//
// A shard's round is a loop of RunBatch, so the scores Feedback
// receives are always those of the last batch generated.
type recorded struct {
	arm
	capture bool
	last    []prog.Program
	found   []thehuzz.PoolEntry
}

func (r *recorded) GenerateBatch(n int) []prog.Program {
	batch := r.arm.GenerateBatch(n)
	r.last = batch
	return batch
}

func (r *recorded) Feedback(scores []cov.Scores) {
	batch := r.last
	if r.capture {
		for i, sc := range scores {
			if sc.Incremental > 0 && i < len(batch) {
				body := make([]uint32, len(batch[i].Body))
				copy(body, batch[i].Body)
				r.found = append(r.found, thehuzz.PoolEntry{Body: body, Score: sc.Incremental})
			}
		}
	}
	r.arm.Feedback(scores)
}

// drain returns and clears the round's coverage-advancing programs.
func (r *recorded) drain() []thehuzz.PoolEntry {
	out := r.found
	r.found = nil
	return out
}

// huzzArm adapts thehuzz.Gen, adding checkpoint restore.
type huzzArm struct{ *thehuzz.Gen }

func (a *huzzArm) armRestore(raw json.RawMessage) error {
	var st thehuzz.State
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	a.Gen.SetState(st)
	return nil
}

// randInstArm generates batches of valid random instructions with no
// feedback loop.
type randInstArm struct {
	body int
	rng  *rand.Rand
}

func (a *randInstArm) GenerateBatch(n int) []prog.Program {
	out := make([]prog.Program, n)
	for i := range out {
		out[i] = prog.Program{Body: randinst.Program(a.rng, a.body)}
	}
	return out
}

func (a *randInstArm) Feedback([]cov.Scores) {}

func (a *randInstArm) Reseed(seed int64) { a.rng.Seed(seed) }

// randFuzzArm wraps randfuzz in raw mode.
type randFuzzArm struct{ gen *randfuzz.Gen }

func (a *randFuzzArm) GenerateBatch(n int) []prog.Program { return a.gen.GenerateBatch(n) }

func (a *randFuzzArm) Feedback(s []cov.Scores) { a.gen.Feedback(s) }

func (a *randFuzzArm) Reseed(seed int64) { a.gen.Reseed(seed) }

// llmArm samples from the shared trained model. Its generator owns one
// reusable sampler; a reseed restarts the generator's random stream in
// place around the (static) weights.
type llmArm struct{ *core.LLMGenerator }

// learnArm samples from the shard's replica model and routes scored
// rollouts back into the replica's PPO trainer. Its generator owns one
// reusable sampler bound to the replica's model, which barrier
// publication overwrites in place, so a reseed restarts the random
// stream and nothing else. The replica's weights are not part of the
// arm's checkpoint state — they live in the checkpoint's fleet-level
// Learn section, since between rounds every shard's replica holds the
// same merge.
type learnArm struct{ *core.LLMGenerator }
