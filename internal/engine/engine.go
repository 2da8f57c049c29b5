// Package engine implements the persistent batch execution engine
// behind the fuzzing loop: the component that turns a batch of
// generated programs into simulation outcomes as fast as the hardware
// allows, while keeping every observable result bit-identical to a
// strictly serial execution.
//
// There is one executor. An Engine submits rounds to a pool (the
// campaign orchestrator's shared FleetPool), and a Round carries one
// atomic next index that every executor claims from:
//
//   - the committer — the engine owner's goroutine inside Round.Each —
//     is always an executor. When the entry it must commit next is not
//     ready it runs its own round's next unclaimed entry, on scratch
//     bound to its own design for life, instead of sleeping; it sleeps
//     only once every entry of its round is claimed;
//   - pool workers exist only to fill the cores the committers leave
//     idle (see SpareWorkers). They claim from the oldest live round,
//     whatever its design, binding their scratch to that design.
//
// With no spare cores the pool has no workers and this is a plain
// inline loop: each committer executes entry i, commits it, executes
// entry i+1 — one executed-but-uncommitted outcome per engine, which
// is what keeps a wide fleet's memory flat. With spare cores, workers
// run ahead of the committers inside the rounds already submitted.
//
// Scratch is reusable everywhere: a platform memory for the golden
// model, a private rtl.Runner per (executor, design) when the DUT
// implements rtl.ReusableDUT, and pooled coverage sets and trace
// buffers recycled at commit, so the steady-state loop is
// allocation-free. Round.Each hands outcomes to the caller in input
// order as soon as each becomes ready, so scoring, mismatch detection
// and virtual-clock accounting overlap the simulation of later
// entries.
//
// Determinism: executors only compute; every stateful side effect
// (coverage merge, detector, clock, trajectory) happens in the
// caller's goroutine in input order, exactly as the serial loop
// performs it. A fixed-seed campaign therefore produces bit-identical
// trajectories, detector output and checkpoints whatever the worker
// count or claim order (see fleetpool.go for the pool side of the
// contract).
//
//chatfuzz:deterministic package
package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
	"chatfuzz/internal/trace"
)

// Config parameterises an engine.
type Config struct {
	// Detect additionally runs every test on the golden-model ISS.
	Detect bool
	// Pool is the pool the engine submits its rounds to (required; a
	// pool may have zero workers, and then the committer runs every
	// entry itself). The pool is owned by whoever built it: Close
	// releases only the engine. See the FleetPool documentation for the
	// claim order, commit order and determinism contract. The engine's
	// committer records its build/sim/golden spans on the pool's flight
	// recorder, as the pool's workers do.
	Pool *FleetPool
}

// Outcome is the execution result of one program of a round.
type Outcome struct {
	// Res is the DUT simulation result. Zero when Err is set.
	Res rtl.Result
	// Golden is the golden-model commit trace (Detect only).
	Golden []trace.Entry
	// Same is a count of leading entries of Res.Trace and Golden known
	// to be identical — the harness prologue both sides copied from
	// their checkpoints — which the detector need not compare.
	Same int
	// Err reports a program the harness refused to build; the program
	// executed nothing and must be scored as invalid.
	Err error

	pooledRes    bool // Res.Coverage/Res.Trace are engine-pooled scratch
	pooledGolden bool // Golden is engine-pooled scratch
}

// pool is a tiny free-list. The engine prefers it over sync.Pool: no
// per-Put boxing for slice types, and entries survive GC cycles, which
// matters for a steady-state loop whose whole point is not allocating.
type pool[T any] struct {
	mu    sync.Mutex
	items []T
}

func (p *pool[T]) get() (T, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var zero T
	n := len(p.items)
	if n == 0 {
		return zero, false
	}
	it := p.items[n-1]
	p.items[n-1] = zero
	p.items = p.items[:n-1]
	return it, true
}

func (p *pool[T]) put(it T) {
	p.mu.Lock()
	p.items = append(p.items, it)
	p.mu.Unlock()
}

// shared is the engine state executors reference through a Round.
//
// The scratch pools (coverage sets, trace buffers) are per engine: a
// cov.Set is bound to its shard's coverage Space (the calculator
// merges by Space identity), so sets must not wander between shards.
// The expensive design-level scratch — the rtl.Runner and the
// golden-model memory — lives on the executors instead, keyed by
// design name.
type shared struct {
	dut       rtl.DUT
	design    string // dut.Name(), the key executors cache runners under
	detect    bool
	pool      *poolState
	committer *worker // the engine's own executor: scratch bound to
	// design for life, touched only by the owner goroutine inside Each

	sets    pool[*cov.Set]
	traces  pool[[]trace.Entry]
	goldens pool[[]trace.Entry]
}

// PipeStats is a shim: the snapshot tree it counted is gone, and only
// bench/fleet.go (fenced) still reads these two fields, as zeros. It
// leaves with core.Fuzzer.EngineStats in the follow-up benchmark PR.
type PipeStats struct{ SnapHits, SnapMisses int64 }

// worker is one executor's simulation context — a pool worker's or a
// committer's: reusable scratch bound to one design at a time. The
// golden-model platform memory is design-independent and lives for
// the worker's whole life; runners are design-specific and cached per
// design on first build, so returning to a previously served design
// re-binds for free (committers never change design).
type worker struct {
	bound string   // design of the currently bound runner
	b     *binding // the bound design's scratch
	binds map[string]*binding
	gmem  *mem.Memory      // golden-model platform memory, lazily built
	track *telemetry.Track // per-worker span ring (nil = disabled)
}

// binding is a worker's scratch for one design.
type binding struct {
	runner rtl.Runner // nil when the design's DUT is not reusable
	// prefix is the once-made verdict on whether the entries runner
	// restores from its checkpoint are the golden prologue's: 0 not
	// yet checked, 1 they are, -1 they are not (final).
	prefix int8
}

// bind points the worker's scratch at sh's design, building the
// design's runner on first encounter. Only a change of design does
// any work.
func (w *worker) bind(sh *shared) {
	if w.bound == sh.design && w.binds != nil {
		return
	}
	if w.binds == nil {
		w.binds = make(map[string]*binding, 1)
	}
	b, ok := w.binds[sh.design]
	if !ok {
		b = &binding{}
		if rd, reusable := sh.dut.(rtl.ReusableDUT); reusable {
			b.runner = rd.NewRunner()
		}
		w.binds[sh.design] = b
	}
	w.bound, w.b = sh.design, b
}

// samePrefix returns how many leading entries of res.Trace and a golden
// trace that began with the copied prologue pro are identical without
// comparing them: len(pro) when res restored exactly that many entries
// from a checkpoint this runner was once seen to restore as pro, entry
// for entry, else 0. A runner's checkpoint never changes once taken, so
// the one comparison covers every later resume.
func (b *binding) samePrefix(res *rtl.Result, pro []trace.Entry) int {
	n := len(pro)
	if n == 0 || res.Restored != n {
		return 0
	}
	if b.prefix == 0 {
		b.prefix = -1
		if n <= len(res.Trace) && slices.Equal(res.Trace[:n], pro) {
			b.prefix = 1
		}
	}
	if b.prefix < 0 {
		return 0
	}
	return n
}

// exec runs one program end to end: build, DUT simulation, and (when
// detection is on) the golden-model reference run. All scratch that
// outlives exec (the coverage set and trace buffers referenced by the
// Outcome) comes from the submitting engine's free lists; the
// worker-owned runner and golden memory are reset per run.
func (w *worker) exec(r *Round, i int) {
	sh := r.sh
	o := &r.outs[i]
	*o = Outcome{}
	p := r.progs[i]
	t := w.track.Start()
	img, _, err := prog.Build(p)
	w.track.Span(telemetry.SpanBuild, t)
	if err != nil {
		o.Err = err
		r.markReady(i)
		return
	}
	budget := prog.InstructionBudget(len(p.Body))
	if ck := scratchCheck.Load(); ck != nil {
		ck.useBegin(w, "worker")
		defer ck.useEnd(w)
	}
	t = w.track.Start()
	if w.b.runner != nil {
		set, ok := sh.sets.get()
		if ok {
			set.Reset()
			if ck := scratchCheck.Load(); ck != nil {
				ck.checkOut(set, "cov set")
			}
		} else {
			set = sh.dut.Space().NewSet()
		}
		tr, ok := sh.traces.get()
		if ok {
			if ck := scratchCheck.Load(); ck != nil {
				ck.checkOut(sliceKey(tr), "trace buffer")
			}
		}
		o.Res = w.b.runner.RunScratch(img, budget, set, tr)
		o.pooledRes = true
	} else {
		o.Res = sh.dut.Run(img, budget)
	}
	w.track.Span(telemetry.SpanSim, t)
	if sh.detect {
		t = w.track.Start()
		if w.gmem == nil {
			w.gmem = mem.Platform()
		}
		w.gmem.Reset()
		buf, ok := sh.goldens.get()
		if ok {
			if ck := scratchCheck.Load(); ck != nil {
				ck.checkOut(sliceKey(buf), "golden buffer")
			}
		}
		var pro []trace.Entry
		o.Golden, pro = goldenRun(w.gmem, img, budget, buf)
		o.Same = w.b.samePrefix(&o.Res, pro)
		o.pooledGolden = true
		w.track.Span(telemetry.SpanGolden, t)
	}
	r.markReady(i)
}

// Engine executes rounds of programs against one DUT. One engine
// serves one fuzzing campaign (a core.Fuzzer or a campaign shard) for
// its whole lifetime; its committer scratch and free lists persist
// across rounds. An engine owns no goroutines — those belong to the
// pool it submits to.
type Engine struct {
	sh     *shared
	round  *Round // the engine's one round, reused by every Submit
	closed bool
}

// New builds an engine over dut submitting to cfg.Pool.
func New(dut rtl.DUT, cfg Config) *Engine {
	sh := &shared{dut: dut, design: dut.Name(), detect: cfg.Detect, pool: cfg.Pool.ps}
	sh.committer = &worker{track: sh.pool.rec.NewTrack(sh.design + "/committer")}
	sh.committer.bind(sh)
	r := &Round{sh: sh}
	r.cond = sync.NewCond(&r.mu)
	return &Engine{sh: sh, round: r}
}

// Close retires the engine: any later Submit panics. The pool is not
// the engine's to release. Close is idempotent and must not be called
// while a round is in flight (between Submit and the end of Each).
func (e *Engine) Close() { e.closed = true }

// Submit hands a round of programs to the pool and returns its handle.
// An engine has one round in flight: Each must have drained it before
// the next Submit, which panics otherwise. Submit and Each must be
// called from the same goroutine. The progs slice is read by executors
// until Each returns and must not be mutated in between — the caller
// is free to generate later rounds' programs concurrently, which is
// exactly how the fuzzer overlaps generation with simulation.
func (e *Engine) Submit(progs []prog.Program) *Round {
	if e.closed {
		panic("engine: Submit after Close")
	}
	r := e.round
	if r.live {
		panic("engine: Submit before the previous round was drained with Each")
	}
	r.live = true
	n := len(progs)
	r.progs = progs
	if cap(r.outs) < n {
		r.outs = make([]Outcome, n)
		r.ready = make([]bool, n)
	}
	r.outs = r.outs[:n]
	r.ready = r.ready[:n]
	clear(r.ready)
	r.next.Store(0)
	// Submit returns immediately: pool workers (if the pool has any)
	// start on the round while the caller generates the next one, and
	// the committer picks up whatever is still unclaimed inside Each.
	e.sh.pool.submit(r)
	return r
}

// Round is one in-flight batch of programs: the engine's one Round
// value, reused by every Submit.
type Round struct {
	sh    *shared
	live  bool // between Submit and the end of Each (owner goroutine only)
	progs []prog.Program
	outs  []Outcome

	// next is the round's next unclaimed entry. Every executor — pool
	// worker or committer — claims entry next.Add(1)-1, so an entry
	// runs exactly once whoever gets there first.
	next atomic.Int64

	mu    sync.Mutex
	cond  *sync.Cond
	ready []bool
}

func (r *Round) markReady(i int) {
	r.mu.Lock()
	r.ready[i] = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

func (r *Round) isReady(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready[i]
}

// await sleeps until entry i, already claimed by a pool worker, is ready.
func (r *Round) await(i int) {
	r.mu.Lock()
	for !r.ready[i] {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// Each hands every outcome to fn in input order. The calling
// goroutine — the committer — is itself an executor: while entry i is
// not ready it claims and runs its own round's next unclaimed entry on
// its own design-bound scratch, and it sleeps only when every entry is
// claimed and entry i is still running on a pool worker. It never
// executes another shard's entries: crossing shards would need a
// second set of scratch per committer and would let one shard's
// committer hold another's outcomes uncommitted.
//
// The Outcome (including Res.Coverage, Res.Trace and Golden) is only
// valid for the duration of the callback: the engine recycles the
// backing scratch as soon as fn returns, so fn must copy anything it
// keeps (the calculator merges and the detector copies entries by
// value, so the fuzzing loop needs no copies).
func (r *Round) Each(fn func(i int, o *Outcome)) {
	sh, n, ran := r.sh, len(r.outs), 0
	for i := range r.outs {
		for !r.isReady(i) {
			if j := int(r.next.Add(1) - 1); j < n {
				sh.committer.exec(r, j)
				ran++
			} else {
				r.await(i)
			}
		}
		o := &r.outs[i]
		fn(i, o)
		sh.recycle(o)
	}
	sh.pool.retire(r, ran)
	r.progs = nil
	// Same goroutine as Submit by contract, so no lock is needed.
	r.live = false
}

// recycle returns an outcome's pooled scratch to the free lists.
func (sh *shared) recycle(o *Outcome) {
	ck := scratchCheck.Load()
	if o.pooledRes {
		if o.Res.Coverage != nil {
			if ck != nil {
				ck.checkIn(o.Res.Coverage, "cov set")
			}
			sh.sets.put(o.Res.Coverage)
		}
		if ck != nil {
			ck.checkIn(sliceKey(o.Res.Trace), "trace buffer")
		}
		sh.traces.put(o.Res.Trace[:0])
	}
	if o.pooledGolden {
		if ck != nil {
			ck.checkIn(sliceKey(o.Golden), "golden buffer")
		}
		sh.goldens.put(o.Golden[:0])
	}
	*o = Outcome{}
}
