// Package boom models the BOOM DUT: a 2-wide out-of-order superscalar
// RISC-V core with register renaming, a reorder buffer, an issue
// queue, a load/store queue with store-to-load forwarding, branch
// prediction, and the same L1 caches and privilege architecture as the
// Rocket model — instrumented with its own condition-coverage space.
//
// Unlike the Rocket model, the BOOM model carries no injected findings:
// the paper's mismatch analysis targets RocketCore, and BOOM serves the
// coverage experiment (97.02 % condition coverage in 49 minutes).
//
// Implementation note: architectural execution is performed in program
// order (sharing the exact semantics of the golden model through
// internal/isa and internal/hart), while an out-of-order timing and
// occupancy model — dispatch/issue/complete/commit events over a ROB,
// issue queue and store queue — drives the condition coverage and the
// cycle count. This is the standard functional-executor + timing-model
// simulator split.
//
//chatfuzz:deterministic package
package boom

import (
	"chatfuzz/internal/cov"
	"chatfuzz/internal/hart"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/uarch"
	"chatfuzz/internal/trace"
)

// Microarchitectural parameters (BOOM "SmallBoom"-ish configuration).
const (
	robSize      = 32
	iqSize       = 12
	sqSize       = 8
	commitWidth  = 2
	flushPenalty = 7
)

// Operation latencies in cycles.
const (
	latALU   = 1
	latMul   = 3
	latDiv   = 20
	latLoad  = 2
	latMiss  = 20
	latAMO   = 8
	latCSR   = 4
	latFence = 6
)

var trapCauses = []uint64{
	isa.ExcInstAddrMisaligned, isa.ExcInstAccessFault, isa.ExcIllegalInstruction,
	isa.ExcBreakpoint, isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault,
	isa.ExcStoreAddrMisaligned, isa.ExcStoreAccessFault, isa.ExcECallFromU,
	isa.ExcECallFromM,
}

type points struct {
	// Frontend.
	icacheHit, fetchFault, fenceiFlush          cov.PointID
	bundleFull, bundleHasBranch                 cov.PointID
	btbHit, bhtPredTaken, rasEmpty, rasOverflow cov.PointID
	// Decode / rename.
	illegal, compressed                         cov.PointID
	freelistEmpty, rdX0Skip, src1Busy, src2Busy cov.PointID
	opSeen                                      [isa.NumOps]cov.PointID
	// ROB / issue.
	robFull, robEmpty, commitBundleFull cov.PointID
	flushMispredict, flushException     cov.PointID
	iqFull, wakeupMatch, dualIssue      cov.PointID
	// Branch resolution.
	brTaken, brMispredict, brBackward cov.PointID
	jalrRet, jalrCall                 cov.PointID
	// LSU / D-cache.
	sqFull, loadForward, partialOverlap                  cov.PointID
	dcacheHit, dcacheEvictDirty                          cov.PointID
	memMisaligned, memFault                              cov.PointID
	scSuccess, resValidAtSC, storeBreaksRes, tohostWrite cov.PointID
	// MUL/DIV.
	divByZero, divOverflow, mdWord, mdSigned cov.PointID
	// Traps, privilege, CSR.
	trapTaken, trapFromU, inUMode, mppIsM cov.PointID
	trapCause                             []cov.PointID // parallel to trapCauses
	csrPrivViol, csrReadOnly              cov.PointID
	csrAddr                               []cov.PointID // parallel to isa.KnownCSRs
	// Tied-off conditions (no interrupt/debug stimulus).
	tieFalse []cov.PointID
}

// Boom is the DUT factory.
type Boom struct {
	space *cov.Space
	p     points
}

var _ rtl.DUT = (*Boom)(nil)

// New builds the BOOM model and its condition space.
func New() *Boom {
	s := cov.NewSpace()
	var p points

	p.icacheHit = s.Define("frontend.icache.hit")
	p.fetchFault = s.Define("frontend.fetch.access_fault")
	p.fenceiFlush = s.Define("frontend.icache.fencei_flush")
	p.bundleFull = s.Define("frontend.fetch.bundle_full")
	p.bundleHasBranch = s.Define("frontend.fetch.bundle_has_branch")
	p.btbHit = s.Define("frontend.btb.hit")
	p.bhtPredTaken = s.Define("frontend.bht.pred_taken")
	p.rasEmpty = s.Define("frontend.ras.pop_empty")
	p.rasOverflow = s.Define("frontend.ras.push_overflow")

	p.illegal = s.Define("decode.illegal")
	p.compressed = s.Define("decode.compressed_parcel")
	p.freelistEmpty = s.Define("rename.freelist_empty")
	p.rdX0Skip = s.Define("rename.rd_x0_no_alloc")
	p.src1Busy = s.Define("rename.src1_busy")
	p.src2Busy = s.Define("rename.src2_busy")
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		p.opSeen[op] = s.Define("decode.op." + op.String())
	}

	p.robFull = s.Define("rob.full_stall")
	p.robEmpty = s.Define("rob.empty_at_dispatch")
	p.commitBundleFull = s.Define("rob.commit_bundle_full")
	p.flushMispredict = s.Define("rob.flush_branch_mispredict")
	p.flushException = s.Define("rob.flush_exception")
	p.iqFull = s.Define("issue.queue_full_stall")
	p.wakeupMatch = s.Define("issue.wakeup_tag_match")
	p.dualIssue = s.Define("issue.dual_issue")

	p.brTaken = s.Define("branch.taken")
	p.brMispredict = s.Define("branch.direction_mispredict")
	p.brBackward = s.Define("branch.backward")
	p.jalrRet = s.Define("branch.jalr_is_ret")
	p.jalrCall = s.Define("branch.jalr_is_call")

	p.sqFull = s.Define("lsu.store_queue_full")
	p.loadForward = s.Define("lsu.store_to_load_forward")
	p.partialOverlap = s.Define("lsu.partial_address_overlap")
	p.dcacheHit = s.Define("dcache.hit")
	p.dcacheEvictDirty = s.Define("dcache.evict_dirty_writeback")
	p.memMisaligned = s.Define("lsu.addr_misaligned")
	p.memFault = s.Define("lsu.access_fault")
	p.scSuccess = s.Define("lsu.sc_success")
	p.resValidAtSC = s.Define("lsu.reservation_valid_at_sc")
	p.storeBreaksRes = s.Define("lsu.store_breaks_reservation")
	p.tohostWrite = s.Define("lsu.tohost_write")

	p.divByZero = s.Define("muldiv.div_by_zero")
	p.divOverflow = s.Define("muldiv.div_overflow")
	p.mdWord = s.Define("muldiv.word_op")
	p.mdSigned = s.Define("muldiv.signed_op")

	p.trapTaken = s.Define("trap.taken")
	p.trapFromU = s.Define("trap.from_umode")
	p.inUMode = s.Define("priv.in_umode")
	p.mppIsM = s.Define("priv.mret_mpp_is_m")
	for _, c := range trapCauses {
		p.trapCause = append(p.trapCause, s.Define("trap.cause."+isa.ExcName(c)))
	}
	p.csrPrivViol = s.Define("csr.privilege_violation")
	p.csrReadOnly = s.Define("csr.write_to_readonly")
	for _, a := range isa.KnownCSRs {
		p.csrAddr = append(p.csrAddr, s.Define("csr.addr."+isa.CSRName(a)))
	}

	for _, name := range []string{
		"interrupt.msip_pending", "interrupt.mtip_pending", "interrupt.meip_pending",
		"interrupt.taken", "debug.halt_request", "dcache.ecc_error",
	} {
		p.tieFalse = append(p.tieFalse, s.Define("tieoff."+name))
	}
	for _, name := range []string{
		"vm.sv39_mode", "vm.page_fault", "debug.abstract_cmd", "pmp.any_match",
	} {
		s.Define("dead." + name)
	}

	return &Boom{space: s, p: p}
}

// Name implements rtl.DUT.
func (b *Boom) Name() string { return "boom" }

// Space implements rtl.DUT.
func (b *Boom) Space() *cov.Space { return b.space }

// ring is a fixed-capacity FIFO over a backing array allocated once.
// Callers never push onto a full ring.
type ring[T any] struct {
	buf     []T
	head, n int
}

func newRing[T any](capacity int) ring[T] { return ring[T]{buf: make([]T, capacity)} }

// at returns the i-th oldest element, i <= n.
func (r *ring[T]) at(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

func (r *ring[T]) push(v T) { *r.at(r.n) = v; r.n++ }

// pop drops the oldest element.
func (r *ring[T]) pop() { r.head = (r.head + 1) % len(r.buf); r.n-- }

func (r *ring[T]) reset() { r.head, r.n = 0, 0 }

// appendTo appends r's elements, oldest first, to dst.
func (r *ring[T]) appendTo(dst []T) []T {
	for i := 0; i < r.n; i++ {
		dst = append(dst, *r.at(i))
	}
	return dst
}

// onto returns a ring with r's contents over buf, which has r's
// capacity.
func (r ring[T]) onto(buf []T) ring[T] {
	copy(buf, r.buf)
	r.buf = buf
	return r
}

// inflight is one ROB entry in the timing model.
type inflight struct {
	done    uint64 // completion cycle
	isStore bool
}

// pendingStore models a store-queue entry for forwarding conditions.
type pendingStore struct {
	addr  uint64
	width int
}

// run is the per-test simulation state. A field a later step reads
// goes into same, and one that only counts or stamps a cycle into
// repeat: the cycle check (hart.Marks) relies on both.
type run struct {
	b   *Boom
	m   *mem.Memory
	pc  uint64
	x   [32]uint64
	prv isa.Priv
	csr hart.CSRFile

	resValid bool
	resAddr  uint64

	uarch.Core

	set     *cov.Set
	cycles  uint64
	opCount [isa.NumOps]uint32
	decoded uint64
	tr      []trace.Entry

	halted   bool
	exitCode uint64

	// Timing model.
	rob       ring[inflight]     // capacity robSize
	sq        ring[pendingStore] // capacity sqSize
	busyReg   [32]uint64         // cycle at which the architectural reg is ready
	fetchBuf  int                // instructions left in the current fetch bundle
	lastIssue uint64             // cycle of the previous issue (dual-issue cond)

	amoRdVal uint64
}

// cacheCfgI and cacheCfgD size the L1 caches (shared by Run and the
// reusable runner so both paths model the identical core).
var (
	cacheCfgI = uarch.CacheConfig{Sets: 64, Ways: 4, LineBytes: 64}
	cacheCfgD = uarch.CacheConfig{Sets: 64, Ways: 8, LineBytes: 64}
)

const (
	bhtEntries = 512
	btbEntries = 64
	rasDepth   = 8
)

func newCore() uarch.Core {
	return uarch.NewCore(cacheCfgI, cacheCfgD, bhtEntries, btbEntries, rasDepth)
}

// Run implements rtl.DUT: the from-reset oracle, every block, ring and
// the memory freshly allocated.
func (b *Boom) Run(img mem.Image, maxInsts int) rtl.Result {
	m := mem.Platform()
	m.Load(img)
	st := b.reset(m, img.Entry, newCore(), newRing[inflight](robSize), newRing[pendingStore](sqSize), b.space.NewSet(), nil)
	return st.exec(maxInsts, new(mark))
}

// reset returns the state of a core out of reset about to fetch entry,
// over empty rings.
func (b *Boom) reset(m *mem.Memory, entry uint64, core uarch.Core, rob ring[inflight], sq ring[pendingStore],
	set *cov.Set, tr []trace.Entry) run {
	return run{
		b:    b,
		m:    m,
		pc:   entry,
		prv:  isa.PrivM,
		csr:  hart.CSRFile{MPP: isa.PrivU},
		Core: core,
		set:  set,
		tr:   tr[:0],
		rob:  rob,
		sq:   sq,
	}
}

// mark is the cycle check's scratch: the run, its blocks and the
// contents of its ROB and store queue as they stood at the last mark.
type mark struct {
	hart.Marks
	st      run
	core    uarch.Mark
	rob     []inflight
	sq      []pendingStore
	repeats int // runs completed by copy, for tests
}

// exec drives the timing model for up to maxInsts more instructions and
// packages the result. A run caught in a cycle is completed by copy
// (hart.Marks), which reports what stepping it out would.
func (st *run) exec(maxInsts int, mk *mark) rtl.Result {
	mk.Drop()
	for i := 1; i <= maxInsts && !st.halted; i++ {
		st.step()
		if mk.Take(i) {
			mk.st = *st
			mk.core.Take(st.Core)
			mk.rob = st.rob.appendTo(mk.rob[:0])
			mk.sq = st.sq.appendTo(mk.sq[:0])
		} else if mk.Clean(&st.tr[len(st.tr)-1]) && st.same(mk) && mk.core.Same(st.Core) {
			i += st.repeat(&mk.st, i-mk.At, maxInsts-i)
			mk.Drop()
			mk.repeats++
		}
	}
	return st.result()
}

// result finalizes the run's coverage and packages what it reports.
func (st *run) result() rtl.Result {
	st.finalize()
	return rtl.Result{
		Trace:    st.tr,
		Coverage: st.set,
		Cycles:   st.cycles,
		Halted:   st.halted,
		ExitCode: st.exitCode,
		Regs:     st.x,
	}
}

// runner is a reusable execution context: platform memory, the cache
// and predictor blocks, and the ROB and store-queue rings are allocated
// once and reset per run. The coverage set and trace buffer come from
// the caller, so once the memory has a page for every address the tests
// touch and the trace buffer has grown to the longest run, RunScratch
// allocates nothing (TestRunScratchAllocFree).
//
// A runner keeps at most one checkpoint. The first image with Body != 0
// runs from reset to pc == Body, and the state there — ROB and store
// queue included — is kept iff the prologue was clean (uarch.Capture);
// the verdict, either way, is final. A later run resumes from the copy
// iff its Entry and Body are the checkpoint's, its budget reaches past
// the prologue and its freshly loaded memory equals every checkpointed
// I-cache line (uarch.Checkpoint.Usable); any other run goes from reset.
type runner struct {
	b    *Boom
	m    *mem.Memory
	core uarch.Core
	rob  ring[inflight]     // always empty: each run works on a copy
	sq   ring[pendingStore] // over the same backing array
	st   run

	ck      *uarch.Checkpoint // nil until an image with a Body has run
	ckRun   run               // st at ck, over rings of its own
	resumes int               // runs that started from ck

	mk mark
}

// NewRunner implements rtl.DUT.
func (b *Boom) NewRunner() rtl.Runner {
	return &runner{
		b:    b,
		m:    mem.Platform(),
		core: newCore(),
		rob:  newRing[inflight](robSize),
		sq:   newRing[pendingStore](sqSize),
	}
}

// RunScratch implements rtl.Runner. Behaviour is bit-identical to Run:
// the reset scratch is observationally a fresh core, and the checkpoint
// is the state that core reaches at img.Body.
func (w *runner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	w.m.Reset()
	w.m.Load(img)
	if w.ck.Usable(img.Entry, img.Body, maxInsts, w.m) {
		w.st = w.ckRun
		w.st.rob, w.st.sq = w.ckRun.rob.onto(w.rob.buf), w.ckRun.sq.onto(w.sq.buf)
		w.st.set, w.st.tr = set, w.ck.Restore(w.core, set, tr)
		w.resumes++
		n := len(w.st.tr)
		res := w.st.exec(maxInsts-n, &w.mk)
		res.Restored = n
		return res
	}
	w.core.Reset()
	w.st = w.b.reset(w.m, img.Entry, w.core, w.rob, w.sq, set, tr)
	n := 0
	if w.ck == nil && img.Body != 0 {
		// The prologue records into a set of its own, so the checkpoint
		// holds its coverage alone whatever the caller's set held.
		w.st.set = w.b.space.NewSet()
		for ; n < maxInsts && !w.st.halted && w.st.pc != img.Body; n++ {
			w.st.step()
		}
		w.ck = uarch.Capture(w.core, img.Entry, img.Body, !w.st.halted && w.st.pc == img.Body, w.st.set, set, w.st.tr)
		w.st.set = set
		w.ckRun = w.st
		w.ckRun.set, w.ckRun.tr = nil, nil // the caller's
		w.ckRun.rob = w.st.rob.onto(make([]inflight, robSize))
		w.ckRun.sq = w.st.sq.onto(make([]pendingStore, sqSize))
	}
	return w.st.exec(maxInsts-n, &w.mk)
}

// same reports whether st stands where the run did at mk, counters and
// stamps aside: the timing model is compared relative to the cycle
// count (a ROB entry's completion, a register's remaining busy time,
// whether the last issue was this cycle). The blocks are uarch.Mark's
// to compare, and amoRdVal is read only in the step that sets it.
func (st *run) same(mk *mark) bool {
	was := &mk.st
	if st.pc != was.pc || st.x != was.x || st.prv != was.prv || !st.csr.SameState(&was.csr) ||
		st.resValid != was.resValid || st.resAddr != was.resAddr || st.fetchBuf != was.fetchBuf ||
		(st.lastIssue == st.cycles) != (was.lastIssue == was.cycles) ||
		st.rob.n != len(mk.rob) || st.sq.n != len(mk.sq) {
		return false
	}
	for r := range st.busyReg {
		if busyFor(st.busyReg[r], st.cycles) != busyFor(was.busyReg[r], was.cycles) {
			return false
		}
	}
	for i, e := range mk.rob {
		if f := st.rob.at(i); f.isStore != e.isStore || f.done-st.cycles != e.done-was.cycles {
			return false
		}
	}
	for i, e := range mk.sq {
		if *st.sq.at(i) != e {
			return false
		}
	}
	return true
}

// busyFor is how many cycles after now a register becomes ready.
func busyFor(ready, now uint64) uint64 {
	if ready > now {
		return ready - now
	}
	return 0
}

// repeat completes by copy the whole periods of a run that has come back
// to was after p steps with left steps of budget to go: their entries
// are appended, every counter moves on by as many periods, and so do the
// cycle stamps of the ROB, the busy table and the last issue. It
// returns the steps it accounted for.
func (st *run) repeat(was *run, p, left int) int {
	n := left / p
	st.tr = trace.Repeat(st.tr, p, n)
	k := uint64(n)
	dc := k * (st.cycles - was.cycles)
	st.cycles += dc
	st.csr.Repeat(&was.csr, k)
	st.decoded += k * (st.decoded - was.decoded)
	for op := range st.opCount {
		st.opCount[op] += uint32(k) * (st.opCount[op] - was.opCount[op])
	}
	for i := 0; i < st.rob.n; i++ {
		st.rob.at(i).done += dc
	}
	for r := range st.busyReg {
		st.busyReg[r] += dc
	}
	st.lastIssue += dc
	return n * p
}

func (st *run) charge(c uint64) { st.cycles += c; st.csr.Cycle += c }

// retire drains completed ROB entries up to the current cycle,
// recording commit-bundle conditions.
func (st *run) retire() {
	p := &st.b.p
	committed := 0
	for st.rob.n > 0 && st.rob.at(0).done <= st.cycles && committed < commitWidth {
		st.rob.pop()
		committed++
	}
	if committed > 0 {
		st.set.Cond(p.commitBundleFull, committed == commitWidth)
	}
}

// dispatch inserts an instruction into the timing model and returns
// its completion cycle.
func (st *run) dispatch(lat uint64, isStore bool) {
	p := &st.b.p
	st.retire()
	if st.set.Cond(p.robFull, st.rob.n >= robSize) {
		// Stall until the oldest entry commits.
		st.charge(st.rob.at(0).done - st.cycles + 1)
		st.retire()
	}
	st.set.Cond(p.robEmpty, st.rob.n == 0)
	st.set.Cond(p.iqFull, st.rob.n >= iqSize) // issue window is a ROB prefix here
	st.rob.push(inflight{done: st.cycles + lat, isStore: isStore})
}

// flush squashes all in-flight state (mispredict or exception).
func (st *run) flush(mispredict bool) {
	p := &st.b.p
	st.set.Cond(p.flushMispredict, mispredict)
	st.set.Cond(p.flushException, !mispredict)
	st.rob.reset()
	st.sq.reset()
	st.fetchBuf = 0
	st.charge(flushPenalty)
}

func (st *run) trap(e *trace.Entry, cause, tval uint64) {
	p := &st.b.p
	e.Trap, e.Cause, e.TVal = true, cause, tval
	st.set.Cond(p.trapFromU, st.prv == isa.PrivU)
	for i, c := range trapCauses {
		st.set.Cond(p.trapCause[i], c == cause)
	}
	st.pc, st.prv = st.csr.TakeTrap(st.pc, cause, tval, st.prv)
	st.resValid = false
	st.flush(false)
}

func (st *run) setReg(rd isa.Reg, v uint64) {
	if rd != 0 {
		st.x[rd] = v
	}
}

func resGranule(addr uint64) uint64 { return addr &^ 7 }

// noteStore pushes a store-queue entry and records forwarding
// conditions for subsequent loads.
func (st *run) noteStore(addr uint64, width int) {
	p := &st.b.p
	if st.set.Cond(p.sqFull, st.sq.n >= sqSize) {
		st.sq.pop()
	}
	st.sq.push(pendingStore{addr: addr, width: width})
}

// observeLoad records store-to-load forwarding conditions against the
// store queue.
func (st *run) observeLoad(addr uint64, width int) {
	p := &st.b.p
	forward, partial := false, false
	for i := 0; i < st.sq.n; i++ {
		s := st.sq.at(i)
		if s.addr == addr && s.width == width {
			forward = true
		} else if addr < s.addr+uint64(s.width) && s.addr < addr+uint64(width) {
			partial = true
		}
	}
	st.set.Cond(p.loadForward, forward)
	st.set.Cond(p.partialOverlap, partial)
}

func (st *run) step() {
	p := &st.b.p
	c := st.set
	st.charge(1)
	st.retire()

	st.tr = append(st.tr, trace.Entry{PC: st.pc, Priv: st.prv})
	e := &st.tr[len(st.tr)-1]

	c.Cond(p.inUMode, st.prv == isa.PrivU)

	// --- Fetch (2-wide bundles) ---
	if st.fetchBuf == 0 {
		st.fetchBuf = 2
		c.Cond(p.bundleFull, true)
	}
	st.fetchBuf--
	if c.Cond(p.fetchFault, !st.m.Mapped(st.pc, 4)) {
		c.Cond(p.trapTaken, true)
		st.trap(e, isa.ExcInstAccessFault, st.pc)
		return
	}
	raw, hit := st.IC.Fetch(st.pc, st.m)
	if !c.Cond(p.icacheHit, hit) {
		st.charge(latMiss)
	}
	e.Raw = raw

	// --- Decode / rename ---
	inst := isa.Decode(raw)
	e.Op = inst.Op
	st.decoded++
	st.opCount[inst.Op]++
	c.Cond(p.compressed, raw&3 != 3)
	if c.Cond(p.illegal, !inst.Valid()) {
		c.Cond(p.trapTaken, true)
		st.trap(e, isa.ExcIllegalInstruction, uint64(raw))
		return
	}
	c.Cond(p.bundleHasBranch, inst.Op.IsAny(isa.ClassBranch|isa.ClassJump))
	c.Cond(p.rdX0Skip, inst.Rd == 0 && inst.WritesRd())
	c.Cond(p.freelistEmpty, st.rob.n >= robSize-1)
	src1Busy := inst.Rs1 != 0 && st.busyReg[inst.Rs1] > st.cycles
	src2Busy := inst.Rs2 != 0 && st.busyReg[inst.Rs2] > st.cycles
	c.Cond(p.src1Busy, src1Busy)
	c.Cond(p.src2Busy, src2Busy)
	c.Cond(p.wakeupMatch, src1Busy || src2Busy)
	c.Cond(p.dualIssue, st.lastIssue == st.cycles)
	st.lastIssue = st.cycles

	op := inst.Op
	a, b := st.x[inst.Rs1], st.x[inst.Rs2]
	nextPC := st.pc + 4
	rdWrite := false
	var rdVal uint64
	lat := uint64(latALU)
	isStore := false

	trapped := false
	doTrap := func(cause, tval uint64) {
		trapped = true
		c.Cond(p.trapTaken, true)
		st.trap(e, cause, tval)
	}

	switch {
	case op == isa.OpLUI:
		rdWrite, rdVal = true, uint64(inst.Imm)
	case op == isa.OpAUIPC:
		rdWrite, rdVal = true, st.pc+uint64(inst.Imm)
	case op == isa.OpJAL:
		target := st.pc + uint64(inst.Imm)
		st.btbObserve(target)
		if target%4 != 0 {
			doTrap(isa.ExcInstAddrMisaligned, target)
			return
		}
		if inst.Rd == isa.RA {
			c.Cond(p.rasOverflow, st.RAS.Push(st.pc+4))
		}
		rdWrite, rdVal = true, st.pc+4
		nextPC = target
	case op == isa.OpJALR:
		target := (a + uint64(inst.Imm)) &^ 1
		isRet := inst.Rs1 == isa.RA && inst.Rd == 0
		c.Cond(p.jalrRet, isRet)
		c.Cond(p.jalrCall, inst.Rd == isa.RA)
		if isRet {
			pred, ok := st.RAS.Pop()
			c.Cond(p.rasEmpty, !ok)
			if ok && pred != target {
				st.flush(true)
			}
		} else {
			st.btbObserve(target)
		}
		if inst.Rd == isa.RA {
			c.Cond(p.rasOverflow, st.RAS.Push(st.pc+4))
		}
		if target%4 != 0 {
			doTrap(isa.ExcInstAddrMisaligned, target)
			return
		}
		rdWrite, rdVal = true, st.pc+4
		nextPC = target
	case op.Is(isa.ClassBranch):
		taken := isa.BranchTaken(op, a, b)
		pred := st.BHT.Predict(st.pc)
		c.Cond(p.bhtPredTaken, pred)
		c.Cond(p.brTaken, taken)
		c.Cond(p.brBackward, inst.Imm < 0)
		if c.Cond(p.brMispredict, pred != taken) {
			st.flush(true)
		}
		st.BHT.Update(st.pc, taken)
		if taken {
			target := st.pc + uint64(inst.Imm)
			st.btbObserve(target)
			if target%4 != 0 {
				doTrap(isa.ExcInstAddrMisaligned, target)
				return
			}
			nextPC = target
		}
	case op.Is(isa.ClassLoad) && !op.Is(isa.ClassAMO):
		addr := a + uint64(inst.Imm)
		width, signed := isa.MemWidth(op)
		// Spec-conformant priority (BOOM carries no Finding1).
		if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
			doTrap(isa.ExcLoadAddrMisaligned, addr)
			return
		}
		if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
			doTrap(isa.ExcLoadAccessFault, addr)
			return
		}
		st.observeLoad(addr, width)
		lat = latLoad
		if !c.Cond(p.dcacheHit, st.dcAccess(addr, false)) {
			lat += latMiss
		}
		v := st.m.ReadUint(addr, width)
		if signed {
			shift := uint(64 - 8*width)
			v = uint64(int64(v<<shift) >> shift)
		}
		rdWrite, rdVal = true, v
		e.MemValid, e.MemAddr = true, addr
	case op.Is(isa.ClassStore) && !op.Is(isa.ClassAMO):
		addr := a + uint64(inst.Imm)
		width, _ := isa.MemWidth(op)
		if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
			doTrap(isa.ExcStoreAddrMisaligned, addr)
			return
		}
		if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
			doTrap(isa.ExcStoreAccessFault, addr)
			return
		}
		if !c.Cond(p.dcacheHit, st.dcAccess(addr, true)) {
			lat += latMiss
		}
		st.noteStore(addr, width)
		st.m.WriteUint(addr, b, width)
		isStore = true
		if c.Cond(p.storeBreaksRes, st.resValid && resGranule(addr) == st.resAddr) {
			st.resValid = false
		}
		e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
		if c.Cond(p.tohostWrite, addr == mem.Tohost && width == 8 && b != 0) {
			st.halted, st.exitCode = true, b
		}
	case op.Is(isa.ClassAMO):
		if !st.execAMO(inst, e, doTrap) {
			return
		}
		rdWrite, rdVal = true, st.amoRdVal
		lat = latAMO
	case op.Is(isa.ClassALU) || op.IsAny(isa.ClassMul|isa.ClassDiv):
		src := b
		switch op.Format() {
		case isa.FmtI, isa.FmtShift, isa.FmtShiftW:
			src = uint64(inst.Imm)
		}
		if op.IsAny(isa.ClassMul | isa.ClassDiv) {
			st.observeMulDiv(op, a, src)
			if op.Is(isa.ClassDiv) {
				lat = latDiv
			} else {
				lat = latMul
			}
		}
		rdWrite, rdVal = true, isa.ALU(op, a, src)
	case op.Is(isa.ClassCSR):
		st.observeCSR(inst)
		old, ok := st.csr.ExecCSR(inst, a, st.prv)
		if !ok {
			doTrap(isa.ExcIllegalInstruction, uint64(raw))
			return
		}
		lat = latCSR
		rdWrite, rdVal = true, old
	case op == isa.OpFENCE:
		lat = latFence
	case op == isa.OpFENCEI:
		c.Cond(p.fenceiFlush, true)
		st.IC.Flush()
		lat = latFence
	case op == isa.OpECALL:
		if st.prv == isa.PrivM {
			doTrap(isa.ExcECallFromM, 0)
		} else {
			doTrap(isa.ExcECallFromU, 0)
		}
		return
	case op == isa.OpEBREAK:
		doTrap(isa.ExcBreakpoint, st.pc)
		return
	case op == isa.OpMRET:
		if st.prv != isa.PrivM {
			doTrap(isa.ExcIllegalInstruction, uint64(raw))
			return
		}
		c.Cond(p.mppIsM, st.csr.MPP == isa.PrivM)
		nextPC, st.prv = st.csr.MRet()
		st.flush(false)
	case op == isa.OpWFI:
		// No interrupts: retires immediately.
	}
	if trapped {
		return
	}
	c.Cond(p.trapTaken, false)

	st.dispatch(lat, isStore)
	if rdWrite {
		st.setReg(inst.Rd, rdVal)
		if inst.Rd != 0 {
			st.busyReg[inst.Rd] = st.cycles + lat
			e.RdValid, e.Rd, e.RdVal = true, inst.Rd, rdVal
		}
	}
	st.pc = nextPC
	st.csr.Instret++
}

func (st *run) dcAccess(addr uint64, write bool) bool {
	res := st.DC.Access(addr, write)
	if st.set.Cond(st.b.p.dcacheEvictDirty, res.WritebackReq) {
		st.charge(3)
	}
	return res.Hit
}

func (st *run) btbObserve(target uint64) {
	p := &st.b.p
	predTarget, hit := st.BTB.Lookup(st.pc)
	st.set.Cond(p.btbHit, hit)
	if !hit || predTarget != target {
		st.charge(2)
	}
	st.BTB.Update(st.pc, target)
}

func (st *run) observeMulDiv(op isa.Op, a, b uint64) {
	p := &st.b.p
	c := st.set
	word := op.Is(isa.ClassW)
	c.Cond(p.mdWord, word)
	signed := op == isa.OpMUL || op == isa.OpMULH || op == isa.OpDIV || op == isa.OpREM ||
		op == isa.OpMULW || op == isa.OpDIVW || op == isa.OpREMW || op == isa.OpMULHSU
	c.Cond(p.mdSigned, signed)
	if op.Is(isa.ClassDiv) {
		if word {
			c.Cond(p.divByZero, uint32(b) == 0)
			c.Cond(p.divOverflow, int32(uint32(a)) == -1<<31 && int32(uint32(b)) == -1)
		} else {
			c.Cond(p.divByZero, b == 0)
			c.Cond(p.divOverflow, int64(a) == -1<<63 && int64(b) == -1)
		}
	}
}

func (st *run) observeCSR(inst isa.Inst) {
	p := &st.b.p
	c := st.set
	for i, addr := range isa.KnownCSRs {
		c.Cond(p.csrAddr[i], addr == inst.CSR)
	}
	_, readable := st.csr.Read(inst.CSR, st.prv)
	_, readableM := st.csr.Read(inst.CSR, isa.PrivM)
	c.Cond(p.csrPrivViol, !readable && readableM)
	writes := inst.Op == isa.OpCSRRW || inst.Op == isa.OpCSRRWI ||
		(inst.Op == isa.OpCSRRS && inst.Rs1 != 0) || (inst.Op == isa.OpCSRRC && inst.Rs1 != 0) ||
		((inst.Op == isa.OpCSRRSI || inst.Op == isa.OpCSRRCI) && inst.Imm != 0)
	c.Cond(p.csrReadOnly, writes && inst.CSR>>10 == 3)
}

// execAMO handles the A extension with spec-conformant priority.
func (st *run) execAMO(inst isa.Inst, e *trace.Entry, doTrap func(cause, tval uint64)) bool {
	p := &st.b.p
	c := st.set
	op := inst.Op
	addr := st.x[inst.Rs1]
	width, signed := isa.MemWidth(op)

	misCause, accCause := isa.ExcStoreAddrMisaligned, isa.ExcStoreAccessFault
	if op == isa.OpLRW || op == isa.OpLRD {
		misCause, accCause = isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault
	}
	if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
		doTrap(misCause, addr)
		return false
	}
	if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
		doTrap(accCause, addr)
		return false
	}

	sext := func(v uint64) uint64 {
		if signed && width == 4 {
			return uint64(int64(int32(uint32(v))))
		}
		return v
	}

	c.Cond(p.dcacheHit, st.dcAccess(addr, op != isa.OpLRW && op != isa.OpLRD))
	switch op {
	case isa.OpLRW, isa.OpLRD:
		v := st.m.ReadUint(addr, width)
		st.resValid, st.resAddr = true, resGranule(addr)
		st.amoRdVal = sext(v)
		e.MemValid, e.MemAddr = true, addr
	case isa.OpSCW, isa.OpSCD:
		match := st.resValid && resGranule(addr) == st.resAddr
		c.Cond(p.resValidAtSC, st.resValid)
		if c.Cond(p.scSuccess, match) {
			st.m.WriteUint(addr, st.x[inst.Rs2], width)
			st.amoRdVal = 0
			e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
		} else {
			st.amoRdVal = 1
		}
		st.resValid = false
	default:
		old := st.m.ReadUint(addr, width)
		st.m.WriteUint(addr, isa.AMOApply(op, old, st.x[inst.Rs2]), width)
		st.amoRdVal = sext(old)
		e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
	}
	return true
}

func (st *run) finalize() {
	p := &st.b.p
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		n := uint64(st.opCount[op])
		if n > 0 {
			st.set.Cond(p.opSeen[op], true)
		}
		if st.decoded > n {
			st.set.Cond(p.opSeen[op], false)
		}
	}
	if st.decoded > 0 {
		c := st.set
		for _, id := range p.tieFalse {
			c.Cond(id, false)
		}
		c.Cond(p.bundleFull, false) // partially-filled bundles occur at redirects
	}
}
