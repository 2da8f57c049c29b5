// The execution pool: spare-core workers over the rounds of many
// engines.
//
// Every engine submits its rounds to a FleetPool — a sharded campaign
// shares one across all shard engines. The committers (the goroutines inside Round.Each) are
// the pool's first executors and always run their own rounds; the
// pool's worker goroutines only fill the cores the committers leave
// idle, on whatever round still has unclaimed entries.
//
// # Sizing
//
// SpareWorkers is the sizing rule: max(0, GOMAXPROCS − committers),
// computed where the pool is built and never configured. A fleet of S
// shards on C cores gets C−S workers, a lone fuzzer C−1. With S ≥ C
// there are no workers at all and each shard is an inline loop on its
// own committer; the known trade is that a shard which finishes its
// round early then idles at the aggregation barrier rather than
// helping a slower shard — committers never cross shards (see
// Round.Each), so only spare cores absorb skew.
//
// # Claim order
//
// A Round carries one atomic next index. Whoever executes an entry —
// a pool worker or the round's own committer — first claims
// next.Add(1)-1, so entries run exactly once, in roughly input order,
// with no queue of per-entry jobs. The pool keeps only the live rounds,
// in submission order, and a worker claims the next entry of the oldest
// one that still has one: first in, first out, whatever the design.
//
// The worker then binds its reusable scratch — the rtl.Runner with its
// platform memory, caches and predictors, plus the golden-model ISS
// memory — to that round's design. Runners are cached per design on
// first build, so returning to a design the worker has served before
// costs nothing but cache warmth. Two DUTs submitted under the same
// design name must therefore be interchangeable (built by the same
// constructor): a runner built from one shard's DUT executes another
// shard's entries, which is sound because runners reset all state per
// run and coverage bins are recorded by index, identically across
// structurally equal spaces.
//
// # Commit order and determinism
//
// Executors only compute and mark entries ready; every stateful side
// effect (coverage merge, detector, clock, trajectory) still happens in
// the owning shard's goroutine, in input order, inside Round.Each.
// Which executor runs an entry, and on which design-bound scratch, is
// unobservable: a fixed-seed campaign produces bit-identical
// trajectories, detector output and checkpoints on the serial oracle
// and on this pool, regardless of worker count or scheduling.
package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chatfuzz/internal/telemetry"
)

// SpareWorkers is the pool sizing rule: the cores left over once each
// of the given number of committers has one, never negative.
func SpareWorkers(committers int) int {
	return max(0, runtime.GOMAXPROCS(0)-committers)
}

// FleetStats is a snapshot of a pool's scheduling counters.
type FleetStats struct {
	// Workers is the pool's worker count.
	Workers int
	// Submitted counts entries submitted since the pool started.
	Submitted int
	// Executed counts entries run by pool workers.
	Executed int
	// Helped counts entries run by committers — each shard's own
	// goroutine inside Round.Each, on its own round. Counted when a
	// round retires, so Executed+Helped equals Submitted between rounds.
	Helped int
	// WorkerBusy accumulates execution time spent by pool workers;
	// WorkerBusy over (Workers × elapsed) is the pool's utilization.
	WorkerBusy time.Duration
}

// FleetPool is the owner's handle on an execution pool. Construct with
// NewFleetPool, hand it to each engine via Config.Pool, and Close it
// after the engines: the pool is owned by whoever built it (the
// campaign orchestrator, or a test driving a lone shard), never by an
// engine.
//
// FleetPool is only the handle; the scheduler state workers reference
// lives in poolState. The split matters for the finalizer: worker
// goroutines must not keep the handle reachable, or an abandoned pool
// could never be collected and the safety net below would be dead
// code.
type FleetPool struct {
	ps   *poolState
	once sync.Once
}

// poolState is the scheduler state shared by workers and submitting
// engines.
type poolState struct {
	workers int
	rec     *telemetry.Recorder // nil = telemetry disabled

	mu     sync.Mutex
	cond   *sync.Cond
	live   []*Round // submitted-but-undrained rounds, oldest first
	closed bool
	wg     sync.WaitGroup

	// Scheduling counters (guarded by mu), plus the atomic busy clock.
	submitted  int
	executed   int
	helped     int
	workerBusy atomic.Int64
}

// NewFleetPool builds a pool and starts its workers; size it with
// SpareWorkers. Zero workers is a valid pool: the committers then run
// everything. rec, when non-nil, gives every worker a flight-recorder
// track carrying its build/sim/golden spans, and is inherited by
// submitting engines (execution-only).
//
// Pools hold goroutines; release them with Close once every engine
// submitting to the pool has been closed. A finalizer closes
// abandoned pools as a safety net, so a leaked pool degrades to
// garbage, not to a goroutine leak.
func NewFleetPool(workers int, rec *telemetry.Recorder) *FleetPool {
	ps := &poolState{workers: workers, rec: rec}
	ps.cond = sync.NewCond(&ps.mu)
	ps.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go ps.workerLoop()
	}
	p := &FleetPool{ps: ps}
	runtime.SetFinalizer(p, (*FleetPool).Close)
	return p
}

// Workers returns the pool's worker count.
func (p *FleetPool) Workers() int { return p.ps.workers }

// Close stops the workers. No engine may have a round in flight, and
// no further Submits may race with Close. Close is idempotent.
func (p *FleetPool) Close() {
	p.once.Do(func() {
		runtime.SetFinalizer(p, nil)
		ps := p.ps
		ps.mu.Lock()
		ps.closed = true
		ps.mu.Unlock()
		ps.cond.Broadcast()
		ps.wg.Wait()
	})
}

// Stats returns a snapshot of the pool's scheduling counters.
func (p *FleetPool) Stats() FleetStats {
	ps := p.ps
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return FleetStats{
		Workers:    ps.workers,
		Submitted:  ps.submitted,
		Executed:   ps.executed,
		Helped:     ps.helped,
		WorkerBusy: time.Duration(ps.workerBusy.Load()),
	}
}

// submit makes a round visible to the workers.
func (ps *poolState) submit(r *Round) {
	ps.mu.Lock()
	if ps.closed {
		ps.mu.Unlock()
		panic("engine: Submit on a closed FleetPool")
	}
	ps.submitted += len(r.outs)
	ps.live = append(ps.live, r)
	ps.mu.Unlock()
	ps.cond.Broadcast()
}

// retire removes a fully committed round from the live set, so the
// pool holds exactly the rounds in flight, and credits the entries the
// round's committer ran itself.
func (ps *poolState) retire(r *Round, helped int) {
	ps.mu.Lock()
	ps.helped += helped
	k := slices.Index(ps.live, r)
	ps.live = slices.Delete(ps.live, k, k+1)
	ps.mu.Unlock()
}

// claim is the pool workers' claim loop: the next entry of the oldest
// live round that still has one. Committers advance next concurrently,
// so a round that looked open may turn out exhausted; the claim itself
// decides. Must be called with ps.mu held; returns false when nothing
// is claimable.
func (ps *poolState) claim() (*Round, int, bool) {
	for _, r := range ps.live {
		if int(r.next.Load()) >= len(r.outs) {
			continue
		}
		if i := int(r.next.Add(1) - 1); i < len(r.outs) {
			ps.executed++
			return r, i, true
		}
	}
	return nil, 0, false
}

func (ps *poolState) workerLoop() {
	defer ps.wg.Done()
	w := &worker{track: ps.rec.NewTrack("pool/worker")}
	for {
		ps.mu.Lock()
		r, i, ok := ps.claim()
		for !ok {
			if ps.closed {
				ps.mu.Unlock()
				return
			}
			ps.cond.Wait()
			r, i, ok = ps.claim()
		}
		ps.mu.Unlock()
		// Execution-only: busy-time counters feed FleetStats and its gauges,
		// which are never checkpointed and never influence scheduling.
		//lint:allow wallclock pool utilization timing is execution-only
		t0 := time.Now()
		w.bind(r.sh)
		w.exec(r, i)
		//lint:allow wallclock pool utilization timing is execution-only
		ps.workerBusy.Add(int64(time.Since(t0)))
	}
}
