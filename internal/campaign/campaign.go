// Package campaign implements a sharded multi-campaign fuzzing
// orchestrator on top of the paper's single fuzzing loop (Fig. 1a).
//
// N shards each run an independent copy of that loop (Shard) — own DUT
// instance, own virtual clock, own generator instances — and a global
// UCB1 bandit allocates each round's batches among the generator arms
// (the trained LLM, TheHuzz, ISA-aware random, raw random), rewarded
// by the incremental merged coverage each batch buys per virtual hour,
// the multi-armed-bandit strategy scheduling MABFuzz showed beats any
// fixed strategy.
//
// A round is: select one arm per shard (sequentially, in shard order) →
// all shards fuzz concurrently → barrier → merge each shard's coverage
// bitmap into the fleet-global set, credit the bandit, and append one
// merged ProgressPoint. Every scheduling and accounting decision
// happens at the barrier in shard order, and every generator is
// reseeded per round from a pure function of (campaign seed, shard,
// round) — so the merged trajectory is bit-identical across runs and
// across checkpoint/resume, regardless of goroutine interleaving.
//
// Fleet virtual time is the maximum over shard clocks: shards model
// independent simulator rigs running in parallel, so Fig. 2-style
// curves from Trajectory() reflect fleet wall-clock, not the sum of
// per-rig time.
//
// There is one way a fleet executes. Each shard's goroutine is the
// committer of its own engine (internal/engine): it runs its round's
// entries on scratch bound to its design for life and commits them in
// input order. All shard engines submit to one pool the orchestrator
// owns, whose workers exist only to fill the cores the shards do not
// — engine.SpareWorkers(Shards), computed, never configured — claiming
// from the oldest live round first, whatever its shard or design. With
// at least as many shards as cores there are no workers and every
// shard is an inline loop; a shard that finishes early then idles at
// the barrier. Everything is bit-identical to the reference oracle
// (Exec.serial, which only this package's tests select),
// because in-order commit per shard is preserved and all randomness
// stays in the per-shard armSeed streams. Fleets may be heterogeneous:
// NewMixed assigns designs to shards round-robin (e.g. Rocket+BOOM),
// each design keeping its own fleet-merged coverage bitmap while the
// bandit, virtual clock and TheHuzz pool sync span the whole fleet.
// Call Close when done to release the shard engines and the pool.
//
// Learning arms ride an off-barrier learning plane (internal/
// fleetlearn): shards buffer their PPO rollouts during the round, and
// the barrier publishes the previous barrier's merge one round late
// and launches training over the buffers on a background goroutine,
// overlapped with the next round's simulation — so PPO never sits on
// a shard's critical path. Config.UpdateBudget adaptively skips
// updates while merged coverage is plateaued. Checkpoints (v4) carry
// the published and staged weight vectors, making resume bit-exact
// even mid-lag.
//
// Config is what a fleet *is* — the scheduling parameters a
// checkpoint records. Its embedded Exec is how one process runs and
// observes it; Exec never reaches the wire format, and New* and
// Resume* accept the same one.
//
//chatfuzz:deterministic package
package campaign

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/fleetlearn"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
)

// Config parameterises an orchestrated fleet.
type Config struct {
	// Shards is the number of concurrent campaigns (default 4).
	Shards int
	// BatchSize is tests per fuzzing round per shard (default 16).
	BatchSize int
	// RoundBatches is how many batches a shard runs between
	// aggregation barriers (default 1). Larger values amortise the
	// barrier at the cost of coarser bandit feedback.
	RoundBatches int
	// Seed derives every per-round generator seed.
	Seed int64
	// Detect enables differential testing in every shard. Detector
	// state is checkpointed (v3), so resumed fleets report cumulative
	// findings across the pause.
	Detect bool
	// MismatchWeight blends a mismatch-novelty term into the bandit
	// reward: 0 (default) rewards coverage rate only, 1 rewards new
	// detector signatures per virtual hour only, values between
	// interpolate. Novelty is measured as growth of the detector's
	// non-filtered signature clusters, not raw mismatch count, so a
	// noisy divergence that keeps firing the same signature is paid
	// once and cannot farm reward. Detection campaigns set this to
	// steer scheduling toward trap-heavy generators; it has no effect
	// without Detect. CheckMismatchWeight is the rule a new fleet's
	// weight must pass.
	MismatchWeight float64
	// UpdateBudget adaptively skips learning-arm PPO updates while the
	// fleet's coverage rate is plateaued: after UpdateBudget
	// consecutive rounds in which the barrier merged zero new coverage
	// bins, the learning barrier discards its buffered rollouts
	// instead of training, until coverage moves again (0, the default,
	// never skips). On a plateau the virtual time a PPO step buys is
	// better spent simulating — the MABFuzz argument, applied to the
	// update schedule rather than arm selection. The plateau counter
	// is a pure function of the merged trajectory, so it survives
	// checkpoint/resume without being stored. Scheduling semantics,
	// not an execution detail: checkpointed.
	UpdateBudget int
	// Exec is how this process runs and observes the fleet. It is not
	// part of the checkpoint; ResumeExec takes one of its own.
	Exec
}

// Exec holds a fleet's execution-side settings: none of them can move
// a trajectory bit, none is checkpointed, and New* (through
// Config.Exec) and ResumeExec accept the same value — a resumed fleet
// runs and is observed exactly like a fresh one.
type Exec struct {
	// Telemetry, when non-nil, wires a span flight recorder through
	// every layer of the fleet: per-executor build/sim/golden spans in
	// the engines and the pool, generate/commit spans per shard,
	// round/barrier spans on the orchestrator's track and train spans
	// on each learning arm's. The rings drain (Flush) at every round
	// barrier. Telemetry observes and never steers.
	Telemetry *telemetry.Recorder
	// Metrics, when non-nil, receives a fleet-state metrics update at
	// every round barrier (coverage, tests, virtual hours, per-design
	// coverage, per-arm bandit pulls and rewards, mismatch cluster
	// counts, pool scheduling counters, and the probe/* histograms of
	// how long shards waited at the barrier; see README.md's
	// Observability section for the series names). The barrier is
	// timed only when it is set: a fleet without a registry reads no
	// clock.
	Metrics *telemetry.Registry

	// serial runs every shard on the reference oracle instead of the
	// engine: a plain loop that builds and simulates each program from
	// reset with freshly allocated scratch, then commits in order. Only
	// this package's determinism tests set it, to assert the oracle and
	// production write identical checkpoint bytes.
	serial bool
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.RoundBatches <= 0 {
		c.RoundBatches = 1
	}
	return c
}

// The bandit's scheduling constants. A checkpoint records each under
// its own key (see wireConfig) and resumes only with these values.
const (
	// exploreC is the UCB1 exploration constant.
	exploreC = math.Sqrt2
	// rewardHalf is the coverage rate, in new bins per virtual hour, at
	// which the bandit reward reaches 0.5. It only sets the scale on
	// which arms are compared.
	rewardHalf = 60
	// banditDecay is the per-round discount applied to the bandit's
	// statistics. Fuzzing rewards are non-stationary, so recent rounds
	// should outweigh the campaign's history.
	banditDecay = 0.9
	// mismatchHalf is the novelty rate, in new non-filtered mismatch
	// signatures per virtual hour, at which the mismatch reward term
	// reaches 0.5 (signatures are far rarer than the raw mismatches
	// they cluster).
	mismatchHalf = 3
)

// CheckMismatchWeight is the rule a new fleet's Config.MismatchWeight
// must pass: the weight lies in [0, 1], and a weight above 0 requires
// detection, since the term rewards new detector signatures. Callers
// apply it where a fleet is asked for — the CLI, a farm submission —
// and never on resume or replay, which run what was already accepted.
func CheckMismatchWeight(weight float64, detect bool) error {
	switch {
	case !(weight >= 0 && weight <= 1):
		return fmt.Errorf("campaign: mismatch weight %v is outside [0, 1]", weight)
	case weight > 0 && !detect:
		return fmt.Errorf("campaign: mismatch weight %v requires detection (the term rewards new non-filtered mismatch signatures)", weight)
	}
	return nil
}

// Orchestrator runs N sharded campaigns under bandit scheduling.
type Orchestrator struct {
	Cfg Config

	specs   []ArmSpec
	bandit  *UCB1
	shards  []*Shard
	designs []string            // per-shard DUT name, in shard order
	names   []string            // sorted unique design names
	globals map[string]*cov.Set // fleet-merged coverage, per design
	// fleets[i] aggregates spec i's per-shard model replicas for
	// barrier weight averaging; nil for non-learning arms.
	fleets []*fleetlearn.Fleet
	// pool is the execution pool every shard engine submits to; the
	// orchestrator owns it and closes it after the shard engines.
	pool *engine.FleetPool
	// track carries the orchestrator's round/barrier spans (nil when
	// telemetry is off).
	track  *telemetry.Track
	merged []ProgressPoint
	round  int
	tests  int
	// plateau counts consecutive rounds whose barrier merged zero new
	// coverage bins (drives Config.UpdateBudget). Derivable from the
	// merged trajectory, so resume recomputes it instead of storing it.
	plateau int
	// err poisons the fleet after a barrier failure: every subsequent
	// Run* call returns it instead of running on inconsistent state.
	err   error
	pools poolSync
	// ckptBuf is the checkpoint encoder's buffer, kept between
	// checkpoints so a durable round does not regrow it.
	ckptBuf []byte
}

// New builds a homogeneous fleet: one DUT per shard via newDUT, one
// instance of every arm per shard, and a shared bandit over the arms.
func New(cfg Config, newDUT func() rtl.DUT, specs ...ArmSpec) (*Orchestrator, error) {
	return NewMixed(cfg, []func() rtl.DUT{newDUT}, specs...)
}

// NewMixed builds a heterogeneous fleet: shard s simulates the design
// built by newDUTs[s % len(newDUTs)], so a two-constructor fleet of
// four shards alternates Rocket and BOOM rigs. Each design keeps its
// own fleet-merged coverage bitmap (coverage spaces differ between
// designs and cannot be merged); the bandit still compares every arm
// across the whole fleet on the shared bins-per-virtual-hour scale,
// and cross-shard mutation-pool sync spans designs, since test
// programs are design-independent.
func NewMixed(cfg Config, newDUTs []func() rtl.DUT, specs ...ArmSpec) (*Orchestrator, error) {
	cfg = cfg.withDefaults()
	if len(newDUTs) == 0 {
		return nil, fmt.Errorf("campaign: at least one DUT constructor is required")
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("campaign: at least one generator arm is required")
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if seen[sp.Name] {
			return nil, fmt.Errorf("campaign: duplicate arm %q", sp.Name)
		}
		seen[sp.Name] = true
	}
	o := &Orchestrator{
		Cfg:     cfg,
		specs:   specs,
		bandit:  NewUCB1(len(specs), exploreC),
		globals: make(map[string]*cov.Set),
		track:   cfg.Telemetry.NewTrack("orchestrator"),
		pool:    engine.NewFleetPool(engine.SpareWorkers(cfg.Shards), cfg.Telemetry),
	}
	replicas := make([][]*fleetlearn.Replica, len(specs))
	for s := 0; s < cfg.Shards; s++ {
		dut := newDUTs[s%len(newDUTs)]()
		arms := make([]arm, len(specs))
		hasHuzz := false
		for i, sp := range specs {
			if sp.newLearner != nil {
				a, rep := sp.newLearner(dut.Space().NumBins())
				arms[i] = a
				replicas[i] = append(replicas[i], rep)
			} else {
				arms[i] = sp.build(dut.Space().NumBins())
			}
			if _, ok := arms[i].(*huzzArm); ok {
				hasHuzz = true
			}
		}
		sh := newShard(dut, cfg, o.pool, fmt.Sprintf("shard%d/%s", s, dut.Name()))
		sh.arms, sh.capture = arms, hasHuzz
		name := dut.Name()
		if g, ok := o.globals[name]; ok {
			if g.Space().NumBins() != dut.Space().NumBins() {
				// Release this shard's just-built engine, the earlier
				// shards' engines and the fleet pool before failing.
				sh.close()
				o.Close()
				return nil, fmt.Errorf("campaign: DUTs named %q disagree on coverage bins (%d vs %d)",
					name, g.Space().NumBins(), dut.Space().NumBins())
			}
		} else {
			o.globals[name] = dut.Space().NewSet()
			o.names = append(o.names, name)
		}
		o.designs = append(o.designs, name)
		o.shards = append(o.shards, sh)
	}
	sort.Strings(o.names)
	o.fleets = make([]*fleetlearn.Fleet, len(specs))
	for i, reps := range replicas {
		if len(reps) == 0 {
			continue
		}
		fl, err := fleetlearn.NewFleet(reps...)
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("campaign: learning arm %q: %w", specs[i].Name, err)
		}
		fl.Track = cfg.Telemetry.NewTrack("learn/" + specs[i].Name)
		o.fleets[i] = fl
	}
	return o, nil
}

// Close joins any in-flight off-barrier training, releases every
// shard's execution engine, then the pool (the orchestrator owns it,
// the shards only submit into it). The orchestrator's reports and
// trajectory stay readable; no further rounds may run.
func (o *Orchestrator) Close() {
	for _, fl := range o.fleets {
		if fl != nil {
			fl.Sync()
		}
	}
	for _, s := range o.shards {
		s.close()
	}
	o.pool.Close()
}

// armSeed derives the per-(shard, round) generator seed as a pure
// function of the campaign seed (splitmix64 finalizer), so a resumed
// run replays the exact stream without checkpointing rng state.
func armSeed(campaign int64, shard, round int) int64 {
	z := uint64(campaign) + 0x9E3779B97F4A7C15*uint64(shard+1) + 0xBF58476D1CE4E5B9*uint64(round+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// RunRound executes one scheduling round: arm selection per shard,
// concurrent fuzzing, then deterministic barrier accounting. A
// barrier failure (a shard's coverage space diverging from the fleet
// global — corrupted state, never a healthy run) is returned to the
// caller rather than panicking a long-lived fleet, and poisons the
// orchestrator: every later Run* call returns the same error.
func (o *Orchestrator) RunRound() error {
	if o.err != nil {
		return o.err
	}
	roundT := o.track.Start()
	n := len(o.shards)
	o.bandit.Discount(banditDecay)
	picks := make([]int, n)
	for i := range picks {
		picks[i] = o.bandit.Select()
	}

	type delta struct {
		tests int
		hours float64
		mis   int // new non-filtered mismatch signatures (Detect only)
	}
	deltas := make([]delta, n)
	var finished []time.Time // each shard's finish time (Metrics only)
	if o.Cfg.Metrics != nil {
		finished = make([]time.Time, n)
	}
	var wg sync.WaitGroup
	for i, s := range o.shards {
		wg.Add(1)
		go func(i int, s *Shard) {
			defer wg.Done()
			a := s.arms[picks[i]]
			a.Reseed(armSeed(o.Cfg.Seed, i, o.round))
			t0, h0 := s.Tests, s.Clk.Hours()
			m0 := 0
			if d := s.Det; d != nil {
				// Novelty, not volume: reward only cluster growth, so a
				// noisy divergence repeating one signature pays once.
				m0 = d.NovelSignatures()
			}
			for b := 0; b < o.Cfg.RoundBatches; b++ {
				s.runBatch(a)
			}
			deltas[i] = delta{tests: s.Tests - t0, hours: s.Clk.Hours() - h0}
			if d := s.Det; d != nil {
				deltas[i].mis = d.NovelSignatures() - m0
			}
			if finished != nil {
				// Execution-only: the timestamps become the probe/* wait
				// histograms (Exec.Metrics), which are never checkpointed
				// and never feed scheduling or trajectory state.
				//lint:allow wallclock barrier timing feeds only the metrics registry
				finished[i] = time.Now()
			}
		}(i, s)
	}
	wg.Wait()

	// Barrier: merge bitmaps and credit the bandit in shard order.
	barrierT := o.track.Start()
	roundAdded := 0
	for i, s := range o.shards {
		added, err := o.globals[o.designs[i]].MergeWords(s.Calc.Total().Snapshot())
		if err != nil {
			o.err = fmt.Errorf("campaign: shard %d (%s) coverage space diverged: %w", i, o.designs[i], err)
			return o.err
		}
		roundAdded += added
		covRate, misRate := 0.0, 0.0
		if deltas[i].hours > 0 {
			covRate = float64(added) / deltas[i].hours
			misRate = float64(deltas[i].mis) / deltas[i].hours
		}
		o.bandit.Reward(picks[i], o.Cfg.reward(covRate, misRate))
		o.tests += deltas[i].tests
	}
	// Push the merged global bitmap back into each shard: a shard's
	// incremental-coverage scores — and therefore TheHuzz pool admission
	// and LLM rewards — then measure fleet-new coverage, so shards
	// complement instead of re-discovering each other's bins (the
	// distributed-fuzzing corpus-sync idea, on bitmaps).
	snaps := make(map[string][]uint64, len(o.names))
	for _, n := range o.names {
		snaps[n] = o.globals[n].Snapshot()
	}
	for i, s := range o.shards {
		if _, err := s.Calc.Total().MergeWords(snaps[o.designs[i]]); err != nil {
			o.err = fmt.Errorf("campaign: global sync to shard %d (%s): %w", i, o.designs[i], err)
			return o.err
		}
	}
	o.syncPools()
	// Fleet learning step: join the training launched last barrier,
	// publish its merge (one round late, see fleetlearn), and launch
	// this round's training on a background goroutine overlapped with
	// the next round's simulation. Replicas are visited in shard order
	// and reduce under a fixed pairwise schedule, so the merged weights
	// are reproducible and a checkpoint needs only the published/staged
	// vector pair per arm.
	if roundAdded == 0 {
		o.plateau++
	} else {
		o.plateau = 0
	}
	skip := o.Cfg.UpdateBudget > 0 && o.plateau >= o.Cfg.UpdateBudget
	var learn0 time.Time
	if finished != nil {
		//lint:allow wallclock barrier timing feeds only the metrics registry
		learn0 = time.Now()
	}
	for _, fl := range o.fleets {
		if fl != nil {
			fl.Barrier(true, skip)
		}
	}
	var learnWait time.Duration
	if finished != nil {
		//lint:allow wallclock barrier timing feeds only the metrics registry
		learnWait = time.Since(learn0)
	}
	o.track.Span(telemetry.SpanBarrier, barrierT)
	o.round++
	o.merged = append(o.merged, ProgressPoint{
		Tests:    o.tests,
		Hours:    o.Hours(),
		Coverage: o.Coverage(),
	})
	o.track.Span(telemetry.SpanRound, roundT)
	// Round commit is the flight recorder's drain point: rings fill
	// during the round, stream out here, off every shard's hot path.
	o.recordMetrics(roundAdded, finished, learnWait)
	o.Cfg.Telemetry.Flush()
	return nil
}

// probeWaitBounds buckets the probe wait histograms, in milliseconds.
var probeWaitBounds = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// recordMetrics publishes the fleet's post-barrier state into
// Cfg.Metrics. Pure observation: every value is read from state the
// barrier already computed, and nothing here is ever read back.
// finished holds each shard's finish time and learnWait the time spent
// in the learning barrier; the probe/* histograms derive from them.
func (o *Orchestrator) recordMetrics(roundAdded int, finished []time.Time, learnWait time.Duration) {
	g := o.Cfg.Metrics
	if g == nil {
		return
	}
	g.Gauge("fleet/rounds").Set(float64(o.round))
	g.Gauge("fleet/tests").Set(float64(o.tests))
	g.Gauge("fleet/virtual_hours").Set(o.Hours())
	g.Gauge("fleet/coverage_pct").Set(o.Coverage())
	g.Counter("coverage/new_bins").Add(int64(roundAdded))
	for _, n := range o.names {
		g.Gauge("coverage/" + n + "_pct").Set(o.globals[n].Percent())
	}
	for i, sp := range o.specs {
		g.Gauge("arm/" + sp.Name + "/pulls").Set(float64(o.bandit.Pulls[i]))
		g.Gauge("arm/" + sp.Name + "/mean_reward").Set(o.bandit.Mean(i))
	}
	if o.Cfg.Detect {
		novel, raw, filtered := 0, 0, 0
		for _, s := range o.shards {
			if d := s.Det; d != nil {
				novel += d.NovelSignatures()
				raw += d.RawCount
				filtered += d.FilteredRaw
			}
		}
		g.Gauge("mismatch/novel_signatures").Set(float64(novel))
		g.Gauge("mismatch/raw").Set(float64(raw))
		g.Gauge("mismatch/raw_filtered").Set(float64(filtered))
	}
	st := o.pool.Stats()
	g.Gauge("pool/workers").Set(float64(st.Workers))
	g.Gauge("pool/submitted").Set(float64(st.Submitted))
	g.Gauge("pool/executed").Set(float64(st.Executed))
	g.Gauge("pool/helped").Set(float64(st.Helped))
	g.Gauge("pool/worker_busy_ms").Set(float64(st.WorkerBusy) / float64(time.Millisecond))
	// sim wait is the summed time shards sat finished while the slowest
	// one generated and simulated: the skew pool workers can absorb.
	// The learning join is the part no worker can take over.
	first, last := slices.MinFunc(finished, time.Time.Compare), slices.MaxFunc(finished, time.Time.Compare)
	var simWait time.Duration
	for _, ts := range finished {
		simWait += last.Sub(ts)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	g.Histogram("probe/sim_wait_ms", probeWaitBounds...).Observe(ms(simWait))
	g.Histogram("probe/learn_wait_ms", probeWaitBounds...).Observe(ms(learnWait))
	g.Histogram("probe/barrier_wait_ms", probeWaitBounds...).Observe(ms(simWait + learnWait))
	g.Histogram("probe/spread_ms", probeWaitBounds...).Observe(ms(last.Sub(first)))
}

// plateauOf recomputes the zero-new-coverage plateau counter from a
// merged trajectory: merged coverage is strictly monotone in hit
// bins, so a round added nothing exactly when its coverage equals the
// previous round's (round 0 compares against zero). Resume uses this
// so Config.UpdateBudget decisions replay bit-identically without
// checkpointing the counter.
func plateauOf(merged []ProgressPoint) int {
	p := 0
	for i := len(merged) - 1; i >= 0; i-- {
		prev := 0.0
		if i > 0 {
			prev = merged[i-1].Coverage
		}
		if merged[i].Coverage != prev {
			break
		}
		p++
	}
	return p
}

// reward squashes a shard-round's coverage rate (new merged bins per
// virtual hour) — and, when MismatchWeight is set, its mismatch
// novelty rate (new non-filtered detector signatures per virtual
// hour) — into the bandit's [0, 1) reward. rewardHalf and
// mismatchHalf are the half-saturation points of the two terms.
func (c Config) reward(covRate, misRate float64) float64 {
	r := covRate / (covRate + rewardHalf)
	// Without detection misRate is identically zero; skipping the blend
	// (rather than scaling the coverage term by 1-w against a constant
	// zero) keeps MismatchWeight a true no-op then, as documented.
	if w := c.MismatchWeight; w > 0 && c.Detect {
		// CheckMismatchWeight refuses such weights for new fleets, but a
		// checkpoint or farm queue log written before it may hold one.
		if w > 1 {
			w = 1
		}
		r = (1-w)*r + w*misRate/(misRate+mismatchHalf)
	}
	return r
}

// syncPools builds the fleet-wide mutation pool and hands it back to
// every shard's TheHuzz arm — the distributed-fuzzing corpus sync,
// plus EnFuzz-style cross-generator seeding: the pool merges (a) every
// shard's existing TheHuzz pool and (b) every program any arm produced
// this round that bought fleet-new coverage (drained from the
// shards' captures, Shard.found). A lone shard only deepens its pool on the rounds the
// bandit assigns it TheHuzz; after syncing, every shard mutates from a
// pool fed by the full fleet throughput and by every generator's
// discoveries. Deterministic: shards are visited in order and the
// merge reuses TheHuzz's own (score, age) ordering.
//
// The barrier copies no body: pooled bodies are immutable (see package
// thehuzz), so the merged pool's entries are handed to every generator
// as they are, and the gather buffers, the dedupe map and its key
// buffer are the orchestrator's, reused every round.
func (o *Orchestrator) syncPools() {
	ps := &o.pools
	ps.gens, ps.all = ps.gens[:0], ps.all[:0]
	if ps.seen == nil {
		ps.seen = make(map[string]bool)
	}
	clear(ps.seen)
	// Post-sync pools are identical across shards, so collecting them
	// all would add Shards-1 duplicate copies of every entry and — once
	// truncated to PoolCap — collapse pool diversity by the shard
	// count. Dedupe by body while gathering.
	add := func(e thehuzz.PoolEntry) {
		ps.key = ps.key[:0]
		for _, w := range e.Body {
			ps.key = binary.LittleEndian.AppendUint32(ps.key, w)
		}
		if !ps.seen[string(ps.key)] { // the lookup does not allocate
			ps.seen[string(ps.key)] = true
			ps.all = append(ps.all, e)
		}
	}
	for _, s := range o.shards {
		for _, a := range s.arms {
			if ha, ok := a.(*huzzArm); ok {
				// A pool that is an earlier one's entry for entry — after a
				// sync, usually every pool but the first — adds nothing: each
				// of its bodies would be a dedupe hit.
				if !slices.ContainsFunc(ps.gens, func(g *huzzArm) bool { return g.Gen.SamePool(ha.Gen) }) {
					ha.Gen.VisitPool(add)
				}
				ps.gens = append(ps.gens, ha)
			}
		}
	}
	if len(ps.gens) == 0 {
		return
	}
	for _, s := range o.shards {
		for _, e := range s.found {
			e.Age = o.round + 1
			add(e)
		}
		// add copied each entry out: the backing array is free again.
		s.found = s.found[:0]
	}
	if len(ps.all) == 0 {
		return
	}
	slices.SortStableFunc(ps.all, func(a, b thehuzz.PoolEntry) int {
		if a.Score != b.Score {
			return b.Score - a.Score
		}
		return b.Age - a.Age
	})
	all := ps.all
	if cap := ps.gens[0].Gen.PoolCap; len(all) > cap {
		all = all[:cap]
	}
	for _, g := range ps.gens {
		g.Gen.AdoptPool(o.round+1, all)
	}
}

// poolSync is syncPools' scratch, kept across barriers.
type poolSync struct {
	gens []*huzzArm
	all  []thehuzz.PoolEntry
	seen map[string]bool
	key  []byte
}

// RunRounds executes n scheduling rounds, stopping at the first
// barrier failure.
func (o *Orchestrator) RunRounds(n int) error {
	for i := 0; i < n; i++ {
		if err := o.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// RunTests runs rounds until the fleet has executed at least n tests,
// stopping at the first barrier failure.
func (o *Orchestrator) RunTests(n int) error {
	for o.tests < n {
		if err := o.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// Coverage returns the fleet's merged condition-coverage percentage.
// In a mixed fleet this aggregates across designs: hit bins over total
// bins, summed over every design's merged bitmap.
func (o *Orchestrator) Coverage() float64 {
	hit, total := 0, 0
	for _, n := range o.names {
		g := o.globals[n]
		hit += g.Count()
		total += g.Space().NumBins()
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(hit) / float64(total)
}

// CoverageAt returns the fleet's merged coverage at a virtual time
// (the last round barrier at or before hours), for equal-virtual-time
// comparisons between fleets whose clocks advance at different rates.
func (o *Orchestrator) CoverageAt(hours float64) float64 {
	last := 0.0
	for _, pt := range o.merged {
		if pt.Hours > hours {
			break
		}
		last = pt.Coverage
	}
	return last
}

// LearnedWeights returns a copy of a learning arm's current published
// model weights — the vector every replica's sampling model holds, one
// round behind training per the fleetlearn staging invariant — or nil
// if no arm of that name learns. Valid between rounds.
func (o *Orchestrator) LearnedWeights(name string) []float64 {
	for i, sp := range o.specs {
		if sp.Name == name && o.fleets[i] != nil {
			return o.fleets[i].Weights()
		}
	}
	return nil
}

// Tests returns the total tests executed across all shards.
func (o *Orchestrator) Tests() int { return o.tests }

// Rounds returns the number of completed scheduling rounds.
func (o *Orchestrator) Rounds() int { return o.round }

// Hours returns fleet virtual time: the maximum over shard clocks.
func (o *Orchestrator) Hours() float64 {
	h := 0.0
	for _, s := range o.shards {
		if sh := s.Clk.Hours(); sh > h {
			h = sh
		}
	}
	return h
}

// ProgressPoint is one round's sample of a fleet's coverage trajectory.
type ProgressPoint struct {
	Tests    int
	Hours    float64 // virtual wall-clock hours
	Coverage float64 // cumulative condition coverage %
}

// Trajectory returns the merged coverage trajectory, one point per
// round (the fleet-level series behind Fig. 2-style curves).
func (o *Orchestrator) Trajectory() []ProgressPoint {
	out := make([]ProgressPoint, len(o.merged))
	copy(out, o.merged)
	return out
}

// Shard returns shard i, for inspection (mismatch reports, per-shard
// coverage). Mutating it mid-campaign voids determinism.
func (o *Orchestrator) Shard(i int) *Shard { return o.shards[i] }

// ArmReport is one arm's scheduling statistics.
type ArmReport struct {
	Name string
	// Pulls is how many shard-rounds the bandit allocated to the arm.
	Pulls int
	// MeanReward is the arm's empirical mean normalized reward.
	MeanReward float64
}

// DesignReport is one design's merged coverage in a (possibly mixed)
// fleet.
type DesignReport struct {
	Name string
	// Shards is how many shards simulate this design.
	Shards int
	// Coverage is the design's fleet-merged condition coverage %.
	Coverage float64
}

// Report summarises the fleet run.
type Report struct {
	Shards   int
	Rounds   int
	Tests    int
	Hours    float64
	Coverage float64
	// Designs lists per-design merged coverage, sorted by name.
	Designs []DesignReport
	Arms    []ArmReport
}

// Report returns the fleet summary, including per-arm pull counts.
func (o *Orchestrator) Report() Report {
	r := Report{
		Shards:   len(o.shards),
		Rounds:   o.round,
		Tests:    o.tests,
		Hours:    o.Hours(),
		Coverage: o.Coverage(),
	}
	for _, n := range o.names {
		nShards := 0
		for _, d := range o.designs {
			if d == n {
				nShards++
			}
		}
		r.Designs = append(r.Designs, DesignReport{
			Name:     n,
			Shards:   nShards,
			Coverage: o.globals[n].Percent(),
		})
	}
	for i, sp := range o.specs {
		r.Arms = append(r.Arms, ArmReport{
			Name:       sp.Name,
			Pulls:      o.bandit.Pulls[i],
			MeanReward: o.bandit.Mean(i),
		})
	}
	return r
}

// String renders the report as a small table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d shards, %d rounds, %d tests, %.2f virtual h, merged coverage %.2f%%\n",
		r.Shards, r.Rounds, r.Tests, r.Hours, r.Coverage)
	if len(r.Designs) > 1 {
		for _, d := range r.Designs {
			fmt.Fprintf(&b, "  %-8s %d shards, merged coverage %.2f%%\n", d.Name, d.Shards, d.Coverage)
		}
	}
	fmt.Fprintf(&b, "%-14s %6s %12s\n", "arm", "pulls", "mean reward")
	for _, a := range r.Arms {
		fmt.Fprintf(&b, "%-14s %6d %12.3f\n", a.Name, a.Pulls, a.MeanReward)
	}
	return b.String()
}
