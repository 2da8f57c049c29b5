package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

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
// a fleet paused mid-lag resumes bit-exactly.
const checkpointVersion = 4

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
	Bins   map[string]int
	Arms   []string
	Bandit banditState
	// Globals holds the fleet-merged coverage bitmap of every design.
	Globals map[string][]uint64
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

// wireConfig is Config as checkpoint v4 spells it: exactly these keys
// in exactly this order. It is its own struct so that reshaping Config
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
	Cov     []uint64
	// Arms holds per-arm checkpoint state, indexed like the specs;
	// nil for stateless arms.
	Arms []json.RawMessage
	// Det is the shard's mismatch-detector state (Detect fleets only),
	// so resumed fleets report cumulative findings.
	Det *mismatch.State `json:",omitempty"`
}

// Checkpoint serializes the fleet between rounds. The caller provides
// the writer; JSON is used so checkpoints stay diffable and float64
// fields round-trip exactly (Go marshals the shortest representation
// that parses back to the same value).
//
// The bytes are exactly what json.NewEncoder(w).Encode of a
// checkpointFile would write — checkpointFile stays the decoder and the
// tests keep that encoder as the oracle — but they are produced in one
// pass by appendCheckpoint, and the bulk of them by hand, read from the
// live state without a copy or a reflection walk: the key skeleton and
// its integers, the coverage bitmaps (cov.Set.AppendJSON), the TheHuzz
// seed pools (thehuzz.Gen.AppendState) and each shard's detector state
// (mismatch.Detector.AppendState, whose two signature strings leave
// for json.Marshal when a byte needs escaping). What encoding/json
// still spells — floats, map-key order, omitempty: Config, Designs,
// Bins, Arms, Bandit, Learn, Merged and each shard's Seconds — is
// json.Marshal of the same wire structs, appended verbatim: a nested
// value encodes to the bytes of its own Marshal. Together those are a
// small part of the cost; Merged grows by one point a round.
//
// Each TheHuzz state is encoded once per checkpoint. After every
// barrier all shards adopt one merged pool (syncPools), so between
// rounds their generators are usually in the same state
// (thehuzz.Gen.SameState: same round, same pool by body identity), and
// a later shard's arm copies the bytes an earlier shard's wrote into
// this very buffer. Nothing is cached from one checkpoint to the next:
// a resumed fleet's pools are deep copies that share nothing, and are
// encoded in full until the next barrier.
//
// The encoding lands in one buffer the orchestrator owns and reuses, so
// the slice handed to w.Write is valid only during that call.
func (o *Orchestrator) Checkpoint(w io.Writer) error {
	buf, err := o.encodeCheckpoint()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// encodeCheckpoint encodes the fleet into the orchestrator's checkpoint
// buffer; the result is overwritten by the next call.
func (o *Orchestrator) encodeCheckpoint() ([]byte, error) {
	buf, err := o.appendCheckpoint(o.ckptBuf[:0])
	o.ckptBuf = buf[:0]
	if err != nil {
		return nil, fmt.Errorf("campaign: encode checkpoint: %w", err)
	}
	return buf, nil
}

// ckptEncoder appends a checkpoint piece by piece. The first Marshal
// error sticks and turns the later marshals into no-ops.
type ckptEncoder struct {
	buf []byte
	err error
}

func (e *ckptEncoder) raw(s string) { e.buf = append(e.buf, s...) }

func (e *ckptEncoder) num(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

func (e *ckptEncoder) marshal(v any) {
	if e.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		e.err = err
		return
	}
	e.buf = append(e.buf, b...)
}

// appendCheckpoint appends the fleet's v4 checkpoint to dst, trailing
// newline included, in checkpointFile's field order.
func (o *Orchestrator) appendCheckpoint(dst []byte) ([]byte, error) {
	e := ckptEncoder{buf: dst}
	e.raw(`{"Version":`)
	e.num(checkpointVersion)
	e.raw(`,"Config":`)
	e.marshal(o.Cfg.wire())
	e.raw(`,"Round":`)
	e.num(o.round)
	e.raw(`,"Tests":`)
	e.num(o.tests)
	e.raw(`,"Designs":`)
	e.marshal(o.designs)

	bins := make(map[string]int, len(o.names))
	for _, n := range o.names {
		bins[n] = o.globals[n].Space().NumBins()
	}
	e.raw(`,"Bins":`)
	e.marshal(bins)

	var sigs []string
	learn := make(map[string]learnState)
	for i, sp := range o.specs {
		sigs = append(sigs, sp.sig)
		if fl := o.fleets[i]; fl != nil {
			// Join any in-flight off-barrier training first, so the
			// staged half is final and the encoded bytes match what the
			// synchronous path would have written.
			fl.Sync()
			st := learnState{Pub: nn.EncodeWeights(fl.Weights())}
			if staged := fl.Staged(); staged != nil {
				st.Staged = nn.EncodeWeights(staged)
			}
			learn[sp.Name] = st
		}
	}
	e.raw(`,"Arms":`)
	e.marshal(sigs)
	e.raw(`,"Bandit":`)
	e.marshal(banditState{Pulls: o.bandit.Pulls, W: o.bandit.W, Sums: o.bandit.Sums, T: o.bandit.T})

	// o.names is sorted, which is the order encoding/json writes map keys in.
	e.raw(`,"Globals":{`)
	for i, n := range o.names {
		if i > 0 {
			e.raw(`,`)
		}
		e.marshal(n)
		e.raw(`:`)
		e.buf = o.globals[n].AppendJSON(e.buf)
	}
	e.raw(`}`)
	if len(learn) > 0 {
		e.raw(`,"Learn":`)
		e.marshal(learn)
	}
	e.raw(`,"Merged":`)
	e.marshal(o.merged)

	// The TheHuzz states this checkpoint has encoded so far.
	var huzz []huzzBytes
	e.raw(`,"Shards":[`)
	for si, s := range o.shards {
		if si > 0 {
			e.raw(`,`)
		}
		e.raw(`{"Tests":`)
		e.num(s.Tests)
		e.raw(`,"Seconds":`)
		e.marshal(s.Clk.Seconds())
		e.raw(`,"Cov":`)
		e.buf = s.Calc.Total().AppendJSON(e.buf)
		e.raw(`,"Arms":[`)
		for i, a := range s.arms {
			if i > 0 {
				e.raw(`,`)
			}
			if ha, ok := a.(*huzzArm); ok {
				e.buf, huzz = appendHuzzState(e.buf, ha.Gen, huzz)
			} else {
				e.raw(`null`)
			}
		}
		e.raw(`]`)
		if s.Det != nil {
			e.raw(`,"Det":`)
			e.buf = s.Det.AppendState(e.buf)
		}
		e.raw(`}`)
	}
	e.raw("]}\n")
	return e.buf, e.err
}

// huzzBytes locates one TheHuzz generator's encoded state in the
// checkpoint buffer: buf[start:end].
type huzzBytes struct {
	gen        *thehuzz.Gen
	start, end int
}

// appendHuzzState appends g's state to buf. If a generator encoded
// earlier in this buffer is in the same state, its bytes are copied;
// otherwise g is encoded and added to done.
func appendHuzzState(buf []byte, g *thehuzz.Gen, done []huzzBytes) ([]byte, []huzzBytes) {
	for _, h := range done {
		if h.gen.SameState(g) {
			return append(buf, buf[h.start:h.end]...), done
		}
	}
	start := len(buf)
	buf = g.AppendState(buf)
	return buf, append(done, huzzBytes{g, start, len(buf)})
}

// decodeCheckpoint reads a checkpoint, probing the version before the
// full strict decode: field layouts differ across versions (v1's Bins
// was an int, v2's is a map), so decoding the v2 struct directly
// against an old file would fail with a raw JSON type error and the
// helpful version-mismatch message would be unreachable.
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
	if probe.Version != checkpointVersion {
		return cf, fmt.Errorf("campaign: checkpoint version %d, want %d", probe.Version, checkpointVersion)
	}
	if err := json.Unmarshal(raw, &cf); err != nil {
		return cf, fmt.Errorf("campaign: decode checkpoint: %w", err)
	}
	return cf, cf.Config.check()
}

// CheckpointFile writes a checkpoint to path, atomically and durably:
// the bytes are staged in a same-directory temp file, fsynced, renamed
// over path, and the directory entry is fsynced (atomicio.WriteFile).
// A crash, kill -9 or full disk mid-write therefore leaves the
// previous checkpoint generation intact — path never holds a torn
// checkpoint. It suits a checkpoint written once a run, as
// `fuzz-bench campaign` writes one; a checkpoint rewritten every round
// goes to a slot store (CheckpointSlots).
func (o *Orchestrator) CheckpointFile(path string) error {
	buf, err := o.encodeCheckpoint()
	if err != nil {
		return err
	}
	return atomicio.WriteFileBytes(path, buf)
}

// CheckpointSlots commits a checkpoint to the slot store s as its next
// generation: the encoding is written, from the orchestrator's reused
// buffer, over the older of s's two slots in place and flushed
// (atomicio.Slots.Commit), so a crash at any instant leaves this
// generation or the previous one readable. The payload is the bytes
// Checkpoint writes. This is how the farm daemon checkpoints a job
// every CheckpointEvery rounds.
func (o *Orchestrator) CheckpointSlots(s *atomicio.Slots) error {
	buf, err := o.encodeCheckpoint()
	if err != nil {
		return err
	}
	return s.Commit(buf)
}

// Resume rebuilds a homogeneous fleet from a checkpoint, with the zero
// Exec; see ResumeExec.
func Resume(r io.Reader, newDUT func() rtl.DUT, specs ...ArmSpec) (*Orchestrator, error) {
	return ResumeExec(r, Exec{}, []func() rtl.DUT{newDUT}, specs...)
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
		if err := s.Calc.RestoreTotal(st.Cov); err != nil {
			return nil, fmt.Errorf("campaign: shard %d coverage: %w", si, err)
		}
		if len(st.Arms) != len(s.arms) {
			return nil, fmt.Errorf("campaign: shard %d has %d arm states, want %d", si, len(st.Arms), len(s.arms))
		}
		for ai, raw := range st.Arms {
			// Stateless arms checkpoint as JSON null.
			if len(raw) == 0 || string(raw) == "null" {
				continue
			}
			sa, ok := s.arms[ai].(statefulArm)
			if !ok {
				return nil, fmt.Errorf("campaign: arm %q carries state but is stateless", specs[ai].Name)
			}
			if err := sa.armRestore(raw); err != nil {
				return nil, fmt.Errorf("campaign: restore arm %q: %w", specs[ai].Name, err)
			}
		}
		if st.Det != nil {
			if s.Det == nil {
				return nil, fmt.Errorf("campaign: shard %d checkpointed detector state but detection is off", si)
			}
			s.Det.SetState(*st.Det)
		}
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
// from r, such as a slot store's payload.
func DecodeCheckpointInfo(r io.Reader) (CheckpointInfo, error) {
	cf, err := decodeCheckpoint(r)
	if err != nil {
		return CheckpointInfo{}, err
	}
	return CheckpointInfo{Config: cf.Config.config(Exec{}), Round: cf.Round, Tests: cf.Tests, Designs: cf.Designs, Bins: cf.Bins, Arms: cf.Arms, Merged: cf.Merged}, nil
}
