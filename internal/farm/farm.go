// Package farm is the distributed campaign service: a long-lived
// daemon (cmd/campd) that accepts fuzzing-campaign submissions over
// an HTTP/JSON API, persists each job in an on-disk write-ahead queue
// log (append, fsync, checksum — replayed on startup), runs jobs on
// the campaign orchestrator with a durable checkpoint committed to the
// job's two-slot store after every CheckpointEvery rounds (trimmed to
// its one newest slot when the job finishes), and streams round
// reports to watching clients.
//
// Crash safety is the design center, and it rests on two invariants
// the rest of the repo already enforces:
//
//  1. Checkpoints are durable and never lost to a tear
//     (internal/atomicio Slots): a generation is flushed before the job
//     goes on, written over the slot that does not hold the newest
//     one, so at any instant the store holds the previous or the new
//     generation intact, no matter when the process died.
//  2. Resume is bit-exact (internal/campaign): a fleet rebuilt from a
//     checkpoint replays the remaining rounds bit-identically to the
//     uninterrupted run — trajectories and subsequent checkpoint
//     bytes included.
//
// Together they make the daemon's recovery story trivial to state: on
// restart, every job whose submit record has no terminal (done/fail)
// record is re-queued in submission order; a job with a checkpoint
// resumes from it, a job without one starts over from its seed; and
// in both cases the completed job is indistinguishable — bit for bit
// — from one whose daemon never died. Losing a kill -9 costs at most
// the rounds since the last durable checkpoint, re-simulated, never
// diverged.
//
// Scheduling state (everything in the checkpoint) is durable;
// execution details (worker counts, pools) are the daemon's own
// business and per-restart. The same split the campaign CLI
// documents.
//
//chatfuzz:deterministic package
package farm

import (
	"errors"
	"fmt"
	"slices"

	"chatfuzz/internal/campaign"
	"chatfuzz/internal/core"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
)

// JobState is a job's position in its lifecycle. Queued and Running
// are volatile (recomputed on restart from the queue log: submitted
// but not terminal means queued); Done and Failed are durable
// terminal records in the log.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobSpec is a campaign submission: exactly the scheduling-state
// surface of campaign.Config plus the arm and design lists — the
// checkpointed parameters, nothing execution-only. A JobSpec is
// serialized verbatim into the queue log, so it must stay
// JSON-stable.
type JobSpec struct {
	// Name is an optional human label; it has no semantics.
	Name string `json:",omitempty"`
	// DUTs lists the designs under test (campaign.DesignNames); shards
	// alternate designs round-robin. Default: rocket.
	DUTs []string `json:",omitempty"`
	// Arms lists the generator arms to schedule (campaign.ArmNames).
	// The LLM arms train the tiny deterministic test-scale pipeline at
	// job start (and again at resume — training is a pure function of
	// its seed, so the rebuilt weights are identical). Default:
	// thehuzz,randinst,randfuzz.
	Arms []string `json:",omitempty"`
	// Tests is the fleet's total test budget (default 2000).
	Tests int
	// Shards, BatchSize, RoundBatches, Seed, Body are set by the fleet
	// flags `fuzz-bench campaign` and `fuzz-bench submit` share.
	Shards       int   `json:",omitempty"`
	BatchSize    int   `json:",omitempty"`
	RoundBatches int   `json:",omitempty"`
	Seed         int64 `json:",omitempty"`
	// Body is the body length, in instructions, of the mutation arms
	// (thehuzz, randinst, randfuzz) only. The LLM arms take their
	// pipeline's Cfg.BodyInstrs, which their signature's body= shows.
	Body int `json:",omitempty"`
	// Detect, MismatchWeight, UpdateBudget mirror campaign.Config.
	Detect         bool    `json:",omitempty"`
	MismatchWeight float64 `json:",omitempty"`
	UpdateBudget   int     `json:",omitempty"`
	// CheckpointEvery is the durable-checkpoint cadence in rounds
	// (default 1: every round barrier writes one). A crash loses at
	// most this many rounds of wall-clock work and zero bits of
	// correctness.
	CheckpointEvery int `json:",omitempty"`
}

// WithDefaults fills the zero-value knobs. The farm applies it at
// submit time so the logged spec is explicit about what will run.
func (s JobSpec) WithDefaults() JobSpec {
	if len(s.DUTs) == 0 {
		s.DUTs = []string{"rocket"}
	}
	if len(s.Arms) == 0 {
		s.Arms = []string{"thehuzz", "randinst", "randfuzz"}
	}
	if s.Tests <= 0 {
		s.Tests = 2000
	}
	if s.Shards <= 0 {
		s.Shards = 4
	}
	if s.BatchSize <= 0 {
		s.BatchSize = 16
	}
	if s.Body <= 0 {
		s.Body = 24
	}
	if s.CheckpointEvery <= 0 {
		s.CheckpointEvery = 1
	}
	return s
}

// The ceilings on a job's size. They are constants, not options: far
// above any fleet the farm runs (the ledger's 4 shards of 16 tests, an
// 8-shard CI smoke), and low enough that one submission can neither
// allocate the daemon to death, per shard or per test, nor make a round
// that a graceful stop waits on for good.
const (
	maxShards       = 64
	maxBatchSize    = 1024
	maxRoundBatches = 64
)

// Validate rejects specs the farm cannot run, before anything is
// logged: sizes checkSizes refuses, unknown designs or arms, duplicate
// arms, a mismatch weight campaign.CheckMismatchWeight refuses.
// Queue-log replay applies checkSizes alone (runJob): a logged spec was
// accepted once and otherwise runs as logged.
func (s JobSpec) Validate() error {
	if err := s.checkSizes(); err != nil {
		return err
	}
	if err := campaign.CheckMismatchWeight(s.MismatchWeight, s.Detect); err != nil {
		return err
	}
	for _, d := range s.DUTs {
		if _, err := campaign.Design(d); err != nil {
			return err
		}
	}
	for i, a := range s.Arms {
		if _, err := campaign.Arm(a, s.Body, nil); err != nil && !errors.Is(err, campaign.ErrNeedsPipeline) {
			return err
		}
		if slices.Contains(s.Arms[:i], a) {
			return fmt.Errorf("farm: duplicate arm %q", a)
		}
	}
	return nil
}

// checkSizes refuses a body no program builds with and more shards,
// tests per batch or batches per round than the ceilings allow.
func (s JobSpec) checkSizes() error {
	bad := func(what string, n, limit int) error {
		return fmt.Errorf("farm: %s %d is over the limit of %d", what, n, limit)
	}
	switch {
	case s.Body > prog.MaxBodyInstructions:
		return bad("body length", s.Body, prog.MaxBodyInstructions)
	case s.Shards > maxShards:
		return bad("shard count", s.Shards, maxShards)
	case s.BatchSize > maxBatchSize:
		return bad("batch size", s.BatchSize, maxBatchSize)
	case s.RoundBatches > maxRoundBatches:
		return bad("batches per round", s.RoundBatches, maxRoundBatches)
	}
	return nil
}

// Pipeline trains the pipeline the spec's LLM arms sample, on its
// first design, from cfg; it returns nil when no arm samples one.
// Training is a pure function of cfg, so a resume that retrains gets
// the weights the original run had.
func (s JobSpec) Pipeline(cfg core.PipelineConfig) (*core.Pipeline, error) {
	if !slices.ContainsFunc(s.Arms, func(a string) bool {
		_, err := campaign.Arm(a, s.Body, nil)
		return errors.Is(err, campaign.ErrNeedsPipeline)
	}) {
		return nil, nil
	}
	newDUT, err := campaign.Design(s.DUTs[0])
	if err != nil {
		return nil, err
	}
	p := core.NewPipeline(cfg)
	p.Run(newDUT())
	return p, nil
}

// Fleet turns a spec into the orchestrator's construction inputs: the
// campaign config (scheduling state only — execution details are the
// caller's), the DUT constructors and the arm specs, whose LLM arms
// sample p. The same arm specs are required for resume, which
// validates them against the checkpoint's signatures.
func (s JobSpec) Fleet(p *core.Pipeline) (campaign.Config, []func() rtl.DUT, []campaign.ArmSpec, error) {
	cfg := campaign.Config{
		Shards:         s.Shards,
		BatchSize:      s.BatchSize,
		RoundBatches:   s.RoundBatches,
		Seed:           s.Seed,
		Detect:         s.Detect,
		MismatchWeight: s.MismatchWeight,
		UpdateBudget:   s.UpdateBudget,
	}
	var duts []func() rtl.DUT
	for _, d := range s.DUTs {
		c, err := campaign.Design(d)
		if err != nil {
			return campaign.Config{}, nil, nil, err
		}
		duts = append(duts, c)
	}
	var arms []campaign.ArmSpec
	for _, a := range s.Arms {
		spec, err := campaign.Arm(a, s.Body, p)
		if err != nil {
			return campaign.Config{}, nil, nil, err
		}
		arms = append(arms, spec)
	}
	return cfg, duts, arms, nil
}

// RoundReport is one barrier's fleet state, streamed to watchers and
// rebuilt from the checkpointed trajectory on recovery. Round is
// 1-based (round N is the state after N completed rounds).
type RoundReport struct {
	Round    int
	Tests    int
	Hours    float64
	Coverage float64
}

// JobSummary is a finished job's headline numbers, recorded durably
// in the queue log's done record.
type JobSummary struct {
	Rounds   int
	Tests    int
	Hours    float64
	Coverage float64
}

// JobStatus is the API's job view.
type JobStatus struct {
	ID    string
	State JobState
	Spec  JobSpec
	// Resumes counts how many times the job was recovered from a
	// durable checkpoint after a daemon restart (0 for a job that ran
	// uninterrupted — the trajectories are bit-identical either way;
	// this is bookkeeping, not a semantic difference).
	Resumes int
	// Round/Tests/Coverage are the latest barrier's numbers while the
	// job runs (and the final ones once it is terminal).
	Round    int
	Tests    int
	Coverage float64
	// Error is set for failed jobs.
	Error string `json:",omitempty"`
	// Summary is set for done jobs.
	Summary *JobSummary `json:",omitempty"`
}
