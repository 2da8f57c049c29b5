package campaign

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"chatfuzz/internal/engine"
)

// RoundProbe is one round's scheduler measurement (Exec.Probe): how
// long shards idled at the aggregation barrier, how the round's
// entries split between committers and pool workers, and how much the
// workers stole and migrated to keep cores from idling. Probes are
// wall-clock observations only — they never influence scheduling, so
// probed and unprobed runs produce identical trajectories.
type RoundProbe struct {
	Round int
	// SimWait is the summed time shards spent finished-but-waiting for
	// the slowest shard's generation + simulation: Σ over shards of
	// (last finish − shard finish). It is the round's wasted rig time
	// — the idle skew a work-stealing pool can actually reclaim.
	SimWait time.Duration
	// LearnWait is the single-threaded time the orchestrator barrier
	// spent in the learning step: joining the previous round's
	// training, which ran overlapped with this round's simulation, so
	// it is the join cost and whatever training outlasted the round.
	// No pool can steal it; the off-barrier plane moved it instead.
	LearnWait time.Duration
	// BarrierWait is SimWait + LearnWait, the round's total barrier
	// cost. Earlier probes reported only this sum, which conflated the
	// stealable sim skew with the unstealable learning pole — exactly
	// how a work-stealing pool could look like it grew the barrier.
	BarrierWait time.Duration
	// Spread is last finish − first finish: the skew of the round.
	Spread time.Duration
	// Steals and Migrations are the pool workers' per-round cross-
	// design claims and scratch re-binds; Helped counts the entries run
	// by the shards' own committers (all of them when the pool has no
	// workers, none on the Serial oracle).
	Steals     int
	Helped     int
	Migrations int
	// MigrationsByDesign counts this round's scratch migrations per
	// destination design. Every design the pool has ever migrated to
	// keeps its key — zero-delta rounds report an explicit 0 — so
	// consumers diffing consecutive probes see a stable key set.
	MigrationsByDesign map[string]int
}

// migrationDelta diffs two cumulative per-design migration counters
// into one round's delta. Every key of the current counter is kept,
// including zero deltas: cumulative counters never lose keys, so
// dropping a design on its quiet rounds (the old `d > 0` filter) made
// ProbeSummary key sets flicker between rounds.
func migrationDelta(cur, prev map[string]int) map[string]int {
	out := make(map[string]int, len(cur))
	// Map→map diff keyed identically on both sides: each entry is
	// computed independently, so iteration order cannot reach the
	// result. Consumers render via the sorted-name idiom (String) or
	// JSON (which sorts map keys).
	//lint:allow mapiter order-insensitive map-to-map diff
	for name, m := range cur {
		out[name] = m - prev[name]
	}
	return out
}

// Probes returns the per-round scheduler measurements recorded so far
// (Exec.Probe only). The probes are fully independent copies: the
// MigrationsByDesign maps are cloned per round, not aliased, so a
// caller mutating a returned probe (or holding it across later rounds)
// cannot corrupt the orchestrator's record — a plain copy() would
// share the map headers.
func (o *Orchestrator) Probes() []RoundProbe {
	out := make([]RoundProbe, len(o.probes))
	copy(out, o.probes)
	for i := range out {
		if m := out[i].MigrationsByDesign; m != nil {
			c := make(map[string]int, len(m))
			// Verbatim map→map copy: iteration order cannot reach the
			// result.
			//lint:allow mapiter order-insensitive map copy
			for k, v := range m {
				c[k] = v
			}
			out[i].MigrationsByDesign = c
		}
	}
	return out
}

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
	Steals      int
	Helped      int
	Migrations  int
	// MigrationsByDesign sums per-design migrations over all rounds.
	MigrationsByDesign map[string]int
}

// ProbeSummary sums the per-round probes into one report.
func (o *Orchestrator) ProbeSummary() ProbeSummary {
	s := ProbeSummary{Rounds: len(o.probes), MigrationsByDesign: make(map[string]int)}
	for _, p := range o.probes {
		s.SimWait += p.SimWait
		s.LearnWait += p.LearnWait
		s.BarrierWait += p.BarrierWait
		s.Spread += p.Spread
		s.Steals += p.Steals
		s.Helped += p.Helped
		s.Migrations += p.Migrations
		// Commutative integer sums into a map keyed the same way:
		// iteration order cannot reach the totals.
		//lint:allow mapiter order-insensitive commutative sum
		for name, n := range p.MigrationsByDesign {
			s.MigrationsByDesign[name] += n
		}
	}
	return s
}

// String renders the summary as a short report.
func (s ProbeSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "probe: %d rounds, barrier wait %v (sim %v + learn %v, spread %v), %d steals, %d committer-run, %d migrations",
		s.Rounds, s.BarrierWait.Round(time.Microsecond),
		s.SimWait.Round(time.Microsecond), s.LearnWait.Round(time.Microsecond),
		s.Spread.Round(time.Microsecond), s.Steals, s.Helped, s.Migrations)
	if len(s.MigrationsByDesign) > 0 {
		names := make([]string, 0, len(s.MigrationsByDesign))
		for n := range s.MigrationsByDesign {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "\n  migrations to %-8s %d", n, s.MigrationsByDesign[n])
		}
	}
	return b.String()
}
