package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"chatfuzz/internal/atomicio"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/rtl"
)

// checkpointVersion guards the JSON layout. Version 2 introduced
// heterogeneous fleets: per-design merged bitmaps (Globals keyed by
// design name) and the per-shard design list replace the single
// Global bitmap and Bins fingerprint of version 1. Version 3 added
// online fleet learning and cumulative detection: the barrier-averaged
// model weights of every learning arm (Learn) and each shard's
// clustered mismatch-detector state (shardState.Det). Version 4 moves
// learning off the barrier: Learn becomes a published/staged weight
// pair per arm — the sampling weights every replica holds plus the
// trained-but-unpublished merge in the one-round publication lag — so
// a fleet paused mid-lag resumes bit-exactly. Version 5 holds each
// thing once: the TheHuzz pool every shard's generator holds after a
// barrier is written once (Pool), each shard's coverage is its
// design's Globals bitmap instead of a copy of its own, and each LLM
// arm's model digest (Models) is recorded. Version 4 files still
// resume (checkpointV4).
const checkpointVersion = 5

// checkpointFile is the serialized form of a paused fleet. Arms holds
// the arm signatures (name + parameters), which Resume validates so a
// mis-parameterised resume fails loudly instead of silently diverging.
// Generator rng state is deliberately absent: per-round seeds are a
// pure function of (Config.Seed, shard, round), so Round is enough to
// replay the remaining stream exactly. Execution details (Exec) are
// likewise absent: the checkpoint captures scheduling state only, so
// it is byte-identical however the fleet was run.
type checkpointFile struct {
	Version int
	Config  wireConfig
	Round   int
	Tests   int
	// Designs records each shard's DUT name, in shard order; Resume
	// validates it against the rebuilt fleet so a shard cannot silently
	// change design.
	Designs []string
	// Bins fingerprints each design's coverage space: the bitmap word
	// count alone cannot distinguish spaces whose bin counts round to
	// the same number of 64-bit words.
	Bins map[string]int
	Arms []string
	// Models holds the digest of each LLM arm's pipeline model
	// (modelDigest), keyed by arm name; Resume refuses a fleet whose
	// model differs. It is not part of the arm signature, so
	// CheckFleet can still run on an untrained pipeline.
	Models map[string]string `json:",omitempty"`
	Bandit banditState
	// Globals holds the fleet-merged coverage bitmap of every design.
	// Every barrier merges it back into each shard, so it is also each
	// shard's coverage.
	Globals map[string][]uint64
	// Pool is the TheHuzz seed pool. Every barrier hands each shard's
	// generator the one merged pool at the round the checkpoint records,
	// so it is written once (omitted when empty or there is no thehuzz
	// arm).
	Pool []thehuzz.PoolEntry `json:",omitempty"`
	// Learn holds each learning arm's weight state, keyed by arm name.
	// Between rounds an arm's entire learning state collapses to the
	// learnState vector pair: training always restarts from a fresh
	// trainer over explicit weights, so no optimizer moments are
	// needed. Any in-flight off-barrier training is joined before
	// encoding, so the bytes do not depend on how far it had got.
	Learn  map[string]learnState `json:",omitempty"`
	Merged []ProgressPoint
	Shards []shardState
}

// wireConfig is Config as checkpoints v4 and v5 spell it: exactly these
// keys in exactly this order. It is its own struct so that reshaping Config
// cannot move checkpoint bytes. Parallel is a format constant: v4 files
// carried a per-shard worker count (default 1) that no longer exists;
// it is written as 1 and ignored when read. ExploreC, RewardHalf,
// BanditDecay, NoSync and MismatchHalf record the scheduling constants
// (exploreC, rewardHalf, banditDecay, always syncing, mismatchHalf):
// they are written as every v4 file has spelled them, and check
// refuses a file that recorded any other schedule.
type wireConfig struct {
	Shards         int
	BatchSize      int
	RoundBatches   int
	Seed           int64
	ExploreC       float64
	RewardHalf     float64
	BanditDecay    float64
	NoSync         bool
	Detect         bool
	MismatchWeight float64
	MismatchHalf   float64
	UpdateBudget   int
	Parallel       int
}

func (c Config) wire() wireConfig {
	return wireConfig{
		Shards: c.Shards, BatchSize: c.BatchSize, RoundBatches: c.RoundBatches, Seed: c.Seed,
		// Every v4 file spells the exploration constant 0, "the
		// default"; writing √2 would move the bytes.
		ExploreC: 0, RewardHalf: rewardHalf, BanditDecay: banditDecay,
		NoSync: false, Detect: c.Detect,
		MismatchWeight: c.MismatchWeight, MismatchHalf: mismatchHalf,
		UpdateBudget: c.UpdateBudget, Parallel: 1,
	}
}

// check refuses a checkpoint whose scheduling constants are not this
// build's: resuming it would silently run a different schedule. Both
// spellings of the exploration constant, 0 and its value, are accepted.
func (w wireConfig) check() error {
	bad := func(key string, v any) error {
		return fmt.Errorf("campaign: checkpoint records Config.%s %v, a schedule this build does not run", key, v)
	}
	switch {
	case w.ExploreC != 0 && w.ExploreC != exploreC:
		return bad("ExploreC", w.ExploreC)
	case w.RewardHalf != rewardHalf:
		return bad("RewardHalf", w.RewardHalf)
	case w.BanditDecay != banditDecay:
		return bad("BanditDecay", w.BanditDecay)
	case w.NoSync:
		return bad("NoSync", w.NoSync)
	case w.MismatchHalf != mismatchHalf:
		return bad("MismatchHalf", w.MismatchHalf)
	}
	return nil
}

// config rebuilds the Config a checkpoint recorded, to be run under ex.
func (w wireConfig) config(ex Exec) Config {
	return Config{
		Shards: w.Shards, BatchSize: w.BatchSize, RoundBatches: w.RoundBatches, Seed: w.Seed,
		Detect: w.Detect, MismatchWeight: w.MismatchWeight,
		UpdateBudget: w.UpdateBudget, Exec: ex,
	}
}

// learnState is one learning arm's checkpointed weights
// (nn.EncodeWeights: base64 of the exact IEEE-754 bits, so resumed
// replicas start bit-identical).
type learnState struct {
	// Pub is the published sampling weights every replica holds.
	Pub string
	// Staged is the trained-but-unpublished pairwise merge awaiting
	// the next barrier — the fresh half of the one-round publication
	// lag. Empty when nothing is staged (no replica has trained since
	// the last publication).
	Staged string `json:",omitempty"`
}

type banditState struct {
	Pulls []int
	W     []float64
	Sums  []float64
	T     float64
}

type shardState struct {
	Tests   int
	Seconds float64
	// Det is the shard's mismatch-detector state (Detect fleets only),
	// so resumed fleets report cumulative findings.
	Det *mismatch.State `json:",omitempty"`
}

// checkpointV4 is the version 4 layout: checkpointFile with each
// shard's coverage bitmap and TheHuzz state written per shard.
type checkpointV4 struct {
	checkpointFile
	Shards []struct {
		shardState
		Cov []uint64
		// Arms holds per-arm state, indexed like the specs: TheHuzz's
		// seed pool, null for a stateless arm.
		Arms []*thehuzz.State
	}
}

// v5 converts a version 4 checkpoint into the version 5 struct. It
// accepts the file only if it holds what every barrier leaves behind:
// one TheHuzz state, at the checkpoint's round, in every shard, and
// each shard's coverage equal to its design's merged bitmap.
func (v checkpointV4) v5() (checkpointFile, error) {
	cf := v.checkpointFile
	cf.Version = checkpointVersion
	if len(v.Shards) != len(cf.Designs) {
		return cf, fmt.Errorf("campaign: v4 checkpoint has %d shards and %d shard designs", len(v.Shards), len(cf.Designs))
	}
	var pool *thehuzz.State
	for si, st := range v.Shards {
		cf.Shards = append(cf.Shards, st.shardState)
		if !slices.Equal(st.Cov, cf.Globals[cf.Designs[si]]) {
			return cf, fmt.Errorf("campaign: v4 checkpoint shard %d coverage differs from its design's merged coverage", si)
		}
		for _, hs := range st.Arms {
			switch {
			case hs == nil:
			case hs.Round != cf.Round:
				return cf, fmt.Errorf("campaign: v4 checkpoint shard %d TheHuzz pool is at round %d, the checkpoint at %d", si, hs.Round, cf.Round)
			case pool == nil:
				pool = hs
			case !slices.EqualFunc(hs.Pool, pool.Pool, func(a, b thehuzz.PoolEntry) bool {
				return a.Score == b.Score && a.Age == b.Age && slices.Equal(a.Body, b.Body)
			}):
				return cf, fmt.Errorf("campaign: v4 checkpoint shard %d TheHuzz pool differs from the first one", si)
			}
		}
	}
	if pool != nil {
		cf.Pool = pool.Pool
	}
	return cf, nil
}

// Checkpoint serializes the fleet between rounds. The caller provides
// the writer; JSON is used so checkpoints stay diffable and float64
// fields round-trip exactly (Go marshals the shortest representation
// that parses back to the same value).
//
// The bytes are json.NewEncoder(w).Encode of a checkpointFile filled
// from the live fleet (checkpoint), the struct decodeCheckpoint reads
// back: the wire structs are the only place the layout is spelled. A
// value encoding/json refuses fails the call before anything reaches w.
// The TheHuzz pool is encoded from the live pool, uncopied.
func (o *Orchestrator) Checkpoint(w io.Writer) error {
	if err := json.NewEncoder(w).Encode(o.checkpoint()); err != nil {
		return fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	return nil
}

// checkpoint fills the wire form of the paused fleet.
func (o *Orchestrator) checkpoint() *checkpointFile {
	cf := &checkpointFile{
		Version: checkpointVersion,
		Config:  o.Cfg.wire(),
		Round:   o.round,
		Tests:   o.tests,
		Designs: o.designs,
		Bins:    make(map[string]int, len(o.names)),
		Models:  o.models,
		Bandit:  banditState{Pulls: o.bandit.Pulls, W: o.bandit.W, Sums: o.bandit.Sums, T: o.bandit.T},
		Globals: make(map[string][]uint64, len(o.names)),
		Merged:  o.merged,
	}
	for _, n := range o.names {
		cf.Bins[n] = o.globals[n].Space().NumBins()
		cf.Globals[n] = o.globals[n].Snapshot()
	}
	for i, sp := range o.specs {
		cf.Arms = append(cf.Arms, sp.sig)
		if fl := o.fleets[i]; fl != nil {
			if cf.Learn == nil {
				cf.Learn = make(map[string]learnState)
			}
			// Join any in-flight off-barrier training first, so the
			// staged half is final and the encoded bytes match what the
			// synchronous path would have written.
			fl.Sync()
			st := learnState{Pub: nn.EncodeWeights(fl.Weights())}
			if staged := fl.Staged(); staged != nil {
				st.Staged = nn.EncodeWeights(staged)
			}
			cf.Learn[sp.Name] = st
		}
	}
	// After a barrier every TheHuzz generator holds the one merged pool.
	if len(o.huzz) > 0 {
		cf.Pool = o.huzz[0].State().Pool
	}
	for _, s := range o.shards {
		st := shardState{Tests: s.Tests, Seconds: s.Clk.Seconds()}
		if s.Det != nil {
			det := s.Det.State()
			st.Det = &det
		}
		cf.Shards = append(cf.Shards, st)
	}
	return cf
}

// decodeCheckpoint reads a checkpoint, probing the version before the
// full strict decode: field layouts differ across versions (v1's Bins
// was an int, v2's is a map), so decoding the v2 struct directly
// against an old file would fail with a raw JSON type error and the
// helpful version-mismatch message would be unreachable. A version 4
// file decodes as checkpointV4 and converts to the version 5 struct, so
// everything downstream reads one layout.
func decodeCheckpoint(r io.Reader) (checkpointFile, error) {
	var cf checkpointFile
	raw, err := io.ReadAll(r)
	if err != nil {
		return cf, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	var probe struct{ Version int }
	if err := json.Unmarshal(raw, &probe); err != nil {
		return cf, fmt.Errorf("campaign: decode checkpoint: %w", err)
	}
	switch probe.Version {
	case checkpointVersion:
		if err := json.Unmarshal(raw, &cf); err != nil {
			return cf, fmt.Errorf("campaign: decode checkpoint: %w", err)
		}
	case 4:
		var v4 checkpointV4
		if err := json.Unmarshal(raw, &v4); err != nil {
			return cf, fmt.Errorf("campaign: decode checkpoint: %w", err)
		}
		if cf, err = v4.v5(); err != nil {
			return cf, err
		}
	default:
		return cf, fmt.Errorf("campaign: checkpoint version %d, want 4 or %d", probe.Version, checkpointVersion)
	}
	return cf, cf.Config.check()
}

// CheckpointFile writes a checkpoint to path, atomically and durably:
// the bytes Checkpoint writes are staged in a same-directory temp file,
// fsynced, renamed over path, and the directory entry is fsynced
// (atomicio.WriteFile). A crash, kill -9 or full disk mid-write
// therefore leaves the previous checkpoint intact — path never holds a
// torn checkpoint — and a concurrent reader of path sees the previous
// checkpoint or this one whole. `fuzz-bench campaign` writes one a
// run; the farm daemon commits a job through it on a CheckpointEvery
// multiple at most once per 100 ms, and always on a run's first
// cadence round, a park and the last round.
func (o *Orchestrator) CheckpointFile(path string) error {
	return atomicio.WriteFile(path, o.Checkpoint)
}

// ResumeMixed rebuilds a (possibly heterogeneous) fleet from a
// checkpoint, with the zero Exec; see ResumeExec.
func ResumeMixed(r io.Reader, newDUTs []func() rtl.DUT, specs ...ArmSpec) (*Orchestrator, error) {
	return ResumeExec(r, Exec{}, newDUTs, specs...)
}

// ResumeExec is the general resume entry: it rebuilds a (possibly
// heterogeneous) fleet from a checkpoint and runs it under ex — the
// same Exec a fresh fleet takes through Config.Exec, so a resumed
// fleet is traced and metered exactly like a new one. The
// caller supplies the same DUT constructors and arm specs as the
// original run (functions cannot be serialized); newDUTs must
// reproduce the original shard-to-design mapping (shard s gets
// newDUTs[s % len(newDUTs)]). ResumeExec validates the arm signatures
// and per-shard design names against the checkpoint (CheckFleet) before
// it builds anything, and restores
// bandit state, per-shard coverage, clocks and arm state, so the
// continued run's merged trajectory is bit-identical to an
// uninterrupted one.
func ResumeExec(r io.Reader, ex Exec, newDUTs []func() rtl.DUT, specs ...ArmSpec) (*Orchestrator, error) {
	cf, err := decodeCheckpoint(r)
	if err != nil {
		return nil, err
	}
	if err := (CheckpointInfo{Designs: cf.Designs, Arms: cf.Arms}).CheckFleet(newDUTs, specs...); err != nil {
		return nil, err
	}
	o, err := NewMixed(cf.Config.config(ex), newDUTs, specs...)
	if err != nil {
		return nil, err
	}
	// The fleet's shard engines are already running; release them if
	// any of the validations below rejects the checkpoint.
	restored := false
	defer func() {
		if !restored {
			o.Close()
		}
	}()
	if len(cf.Designs) != len(o.designs) {
		return nil, fmt.Errorf("campaign: checkpoint has %d shard designs, config builds %d", len(cf.Designs), len(o.designs))
	}
	for _, sp := range o.specs { // a v4 file carries no Models
		if want, got := cf.Models[sp.Name], o.models[sp.Name]; cf.Models != nil && want != got {
			return nil, fmt.Errorf("campaign: arm %q was checkpointed under model %s, this pipeline's model is %s", sp.Name, want, got)
		}
	}
	for _, n := range o.names {
		if bins := o.globals[n].Space().NumBins(); bins != cf.Bins[n] {
			return nil, fmt.Errorf("campaign: checkpoint was taken against a %q DUT with %d coverage bins, this one has %d — resume with the original DUT constructor", n, cf.Bins[n], bins)
		}
	}
	if len(cf.Shards) != len(o.shards) {
		return nil, fmt.Errorf("campaign: checkpoint has %d shards, config builds %d", len(cf.Shards), len(o.shards))
	}
	if len(cf.Bandit.Pulls) != len(specs) || len(cf.Bandit.W) != len(specs) || len(cf.Bandit.Sums) != len(specs) {
		return nil, fmt.Errorf("campaign: bandit state sized for %d/%d/%d arms, want %d",
			len(cf.Bandit.Pulls), len(cf.Bandit.W), len(cf.Bandit.Sums), len(specs))
	}
	o.round = cf.Round
	o.tests = cf.Tests
	o.merged = cf.Merged
	o.bandit.Pulls = cf.Bandit.Pulls
	o.bandit.W = cf.Bandit.W
	o.bandit.Sums = cf.Bandit.Sums
	o.bandit.T = cf.Bandit.T
	for _, n := range o.names {
		if err := o.globals[n].LoadSnapshot(cf.Globals[n]); err != nil {
			return nil, fmt.Errorf("campaign: global coverage for %q: %w", n, err)
		}
	}
	for si, st := range cf.Shards {
		s := o.shards[si]
		s.Tests = st.Tests
		s.Clk.SetSeconds(st.Seconds)
		if err := s.Calc.RestoreTotal(cf.Globals[o.designs[si]]); err != nil {
			return nil, fmt.Errorf("campaign: shard %d coverage: %w", si, err)
		}
		if st.Det != nil {
			if s.Det == nil {
				return nil, fmt.Errorf("campaign: shard %d checkpointed detector state but detection is off", si)
			}
			s.Det.SetState(*st.Det)
		}
	}
	if len(o.huzz) == 0 && len(cf.Pool) > 0 {
		return nil, fmt.Errorf("campaign: checkpoint carries a TheHuzz pool but the fleet has no thehuzz arm")
	}
	// Bodies are immutable: every generator shares the decoded pool's,
	// as after a barrier.
	for _, g := range o.huzz {
		g.AdoptPool(cf.Round, cf.Pool)
	}
	for i, sp := range o.specs {
		if o.fleets[i] == nil {
			continue
		}
		st, ok := cf.Learn[sp.Name]
		if !ok {
			// Arm signatures matched, so this can only be a hand-edited
			// or corrupted file; fail instead of silently restarting the
			// arm from the pipeline's offline weights.
			return nil, fmt.Errorf("campaign: checkpoint carries no weights for learning arm %q", sp.Name)
		}
		w, err := nn.DecodeWeights(st.Pub)
		if err != nil {
			return nil, fmt.Errorf("campaign: weights for learning arm %q: %w", sp.Name, err)
		}
		if err := o.fleets[i].SetWeights(w); err != nil {
			return nil, fmt.Errorf("campaign: restore learning arm %q: %w", sp.Name, err)
		}
		if st.Staged != "" {
			sw, err := nn.DecodeWeights(st.Staged)
			if err != nil {
				return nil, fmt.Errorf("campaign: staged weights for learning arm %q: %w", sp.Name, err)
			}
			if err := o.fleets[i].SetStaged(sw); err != nil {
				return nil, fmt.Errorf("campaign: restore staged weights for arm %q: %w", sp.Name, err)
			}
		}
	}
	// Replay the update-budget plateau counter from the restored
	// trajectory, so Config.UpdateBudget skip decisions continue
	// bit-identically to the uninterrupted run.
	o.plateau = plateauOf(o.merged)
	restored = true
	return o, nil
}

// CheckpointInfo summarises a checkpoint's envelope.
type CheckpointInfo struct {
	Config Config
	Round  int
	Tests  int
	// Designs records each shard's DUT name, in shard order.
	Designs []string
	// Bins fingerprints each design's coverage space.
	Bins map[string]int
	// Arms holds the arm signatures: the arm's name, then "/" and its
	// parameters.
	Arms []string
	// Merged is the fleet's merged trajectory, one point per round.
	Merged []ProgressPoint
}

// CheckFleet reports whether a fleet of specs over newDUTs, shard s
// running newDUTs[s % len(newDUTs)], is the checkpoint's: the same arms,
// in order and with the same signatures, and the same design on every
// checkpointed shard. It is the rule ResumeExec applies before building
// the fleet. It builds one DUT per constructor to read its name, and
// nothing else; an LLM arm's signature reads only its pipeline's model
// shape, vocabulary and body length, so an untrained pipeline of the
// same config will do.
func (ci CheckpointInfo) CheckFleet(newDUTs []func() rtl.DUT, specs ...ArmSpec) error {
	if len(ci.Arms) != len(specs) {
		return fmt.Errorf("campaign: checkpoint has %d arms, got %d specs", len(ci.Arms), len(specs))
	}
	for i, sig := range ci.Arms {
		if specs[i].sig != sig {
			return fmt.Errorf("campaign: arm %d is %q in checkpoint, %q in specs", i, sig, specs[i].sig)
		}
	}
	names := make([]string, len(newDUTs))
	for s, want := range ci.Designs {
		if len(newDUTs) == 0 {
			return fmt.Errorf("campaign: at least one DUT constructor is required")
		}
		i := s % len(newDUTs)
		if names[i] == "" {
			names[i] = newDUTs[i]().Name()
		}
		if names[i] != want {
			return fmt.Errorf("campaign: shard %d is design %q in checkpoint but %q here — resume with the original DUT constructors", s, want, names[i])
		}
	}
	return nil
}

// ReadCheckpointInfo decodes a checkpoint's envelope without
// rebuilding the fleet, so callers can fail fast on a bad file before
// doing expensive work (such as training an LLM arm's pipeline).
func ReadCheckpointInfo(path string) (CheckpointInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer f.Close()
	return DecodeCheckpointInfo(f)
}

// DecodeCheckpointInfo is ReadCheckpointInfo over a checkpoint's bytes
// from r, such as the body campd serves for a job's checkpoint.
func DecodeCheckpointInfo(r io.Reader) (CheckpointInfo, error) {
	cf, err := decodeCheckpoint(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{Config: cf.Config.config(Exec{}), Round: cf.Round, Tests: cf.Tests, Designs: cf.Designs, Bins: cf.Bins, Arms: cf.Arms, Merged: cf.Merged}, nil
}
