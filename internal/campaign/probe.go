package campaign

import (
	"fmt"
	"slices"
	"time"

	"chatfuzz/internal/engine"
)

// RoundProbe is one round's scheduler measurement (Exec.Probe): how
// long shards idled at the aggregation barrier, and how the round's
// entries split between committers and pool workers. Probes are
// wall-clock observations only — they never influence scheduling, so
// probed and unprobed runs produce identical trajectories.
type RoundProbe struct {
	Round int
	// SimWait is the summed time shards spent finished-but-waiting for
	// the slowest shard's generation + simulation: Σ over shards of
	// (last finish − shard finish). It is the round's wasted rig time
	// — the idle skew spare-core pool workers can actually reclaim.
	SimWait time.Duration
	// LearnWait is the single-threaded time the orchestrator barrier
	// spent in the learning step: joining the previous round's
	// training, which ran overlapped with this round's simulation, so
	// it is the join cost and whatever training outlasted the round.
	// No pool worker can take it over; the off-barrier plane moved it
	// instead.
	LearnWait time.Duration
	// BarrierWait is SimWait + LearnWait, the round's total barrier
	// cost. Earlier probes reported only this sum, which conflated the
	// sim skew a pool can absorb with the learning pole it cannot —
	// exactly how a pool could look like it grew the barrier.
	BarrierWait time.Duration
	// Spread is last finish − first finish: the skew of the round.
	Spread time.Duration
	// Helped counts the entries run by the shards' own committers (all
	// of them when the pool has no workers, none on the Serial oracle).
	Helped int
}

// Probes returns a copy of the per-round scheduler measurements
// recorded so far (Exec.Probe only).
func (o *Orchestrator) Probes() []RoundProbe { return slices.Clone(o.probes) }

// PoolStats returns the execution pool's cumulative scheduling
// counters.
func (o *Orchestrator) PoolStats() engine.FleetStats { return o.pool.Stats() }

// ProbeSummary aggregates the recorded probes.
type ProbeSummary struct {
	Rounds      int
	SimWait     time.Duration // summed over rounds
	LearnWait   time.Duration // summed over rounds
	BarrierWait time.Duration // SimWait + LearnWait, summed over rounds
	Spread      time.Duration // summed over rounds
	Helped      int
}

// ProbeSummary sums the per-round probes into one report.
func (o *Orchestrator) ProbeSummary() ProbeSummary {
	s := ProbeSummary{Rounds: len(o.probes)}
	for _, p := range o.probes {
		s.SimWait += p.SimWait
		s.LearnWait += p.LearnWait
		s.BarrierWait += p.BarrierWait
		s.Spread += p.Spread
		s.Helped += p.Helped
	}
	return s
}

// String renders the summary as a short report.
func (s ProbeSummary) String() string {
	return fmt.Sprintf("probe: %d rounds, barrier wait %v (sim %v + learn %v, spread %v), %d committer-run",
		s.Rounds, s.BarrierWait.Round(time.Microsecond),
		s.SimWait.Round(time.Microsecond), s.LearnWait.Round(time.Microsecond),
		s.Spread.Round(time.Microsecond), s.Helped)
}
