// Package rocket models the RocketCore DUT: an in-order, single-issue,
// 5-stage RISC-V core with an L1 I-cache, L1 D-cache, branch
// prediction (BHT + BTB + RAS), a multi-cycle MUL/DIV unit, M/U
// privilege and machine traps — instrumented with VCS-style condition
// coverage.
//
// The model deliberately contains the five RocketCore findings the
// paper reports (PAPER.md; `fuzz-bench -exp findings` renders the
// detector's view of them):
//
//   - Bug1 (CWE-1202): the I-cache is not coherent with stores; only
//     FENCE.I flushes it, so self-modifying code without FENCE.I
//     executes stale instructions.
//   - Bug2 (CWE-440): the tracer omits the destination-register write
//     of MUL/DIV-class instructions.
//   - Finding1: access faults are prioritised over address-misaligned
//     exceptions (the spec and the ISS do the opposite).
//   - Finding2: AMOs with rd=x0 report a write to x0 in the trace.
//   - Finding3: loads with rd=x0 report a write to x0 in the trace.
//
//chatfuzz:deterministic package
package rocket

import (
	"slices"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/hart"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/uarch"
	"chatfuzz/internal/trace"
)

// Cycle costs of microarchitectural events (approximate RocketCore
// latencies; they drive the virtual wall-clock of the experiments).
const (
	cycBase       = 1
	cycICacheMiss = 18
	cycDCacheMiss = 24
	cycWriteback  = 6
	cycMispredict = 3
	cycLoadUse    = 1
	cycMul        = 4
	cycDiv        = 33
	cycCSR        = 3
	cycTrap       = 5
	cycAMO        = 9
	cycFenceI     = 12
)

// trapCauses are the synchronous causes this platform can raise; each
// gets a condition point whose true bin requires triggering it.
var trapCauses = []uint64{
	isa.ExcInstAddrMisaligned, isa.ExcInstAccessFault, isa.ExcIllegalInstruction,
	isa.ExcBreakpoint, isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault,
	isa.ExcStoreAddrMisaligned, isa.ExcStoreAccessFault, isa.ExcECallFromU,
	isa.ExcECallFromM,
}

// uTrapCauses are the causes U-mode can raise, in trapCauses order.
var uTrapCauses = slices.DeleteFunc(slices.Clone(trapCauses), func(c uint64) bool {
	return c == isa.ExcECallFromM
})

// points holds every condition-point id of the Rocket coverage space.
type points struct {
	// Frontend.
	icacheHit, fetchFault, fenceiFlush          cov.PointID
	btbHit, bhtPredTaken, rasOverflow, rasEmpty cov.PointID
	rasCorrect                                  cov.PointID
	// Decode.
	illegal, compressed, rdX0, rs1X0, rs2X0, immNeg cov.PointID
	opSeen                                          [isa.NumOps]cov.PointID
	// Pipeline hazards and bypasses.
	loadUse, bypExRs1, bypExRs2, bypMemRs1, bypMemRs2 cov.PointID
	muldivBusy, csrStall, wbX0                        cov.PointID
	// Branch resolution.
	brTaken, brMispredict, btbWrongTarget, brBackward cov.PointID
	jalrRet, jalrCall                                 cov.PointID
	// D-cache / LSU.
	dcacheHit, dcacheEvictDirty, memMisaligned, memFault cov.PointID
	scSuccess, resValidAtSC, storeBreaksRes, tohostWrite cov.PointID
	// MUL/DIV unit.
	divByZero, divOverflow, mdWord, mdSigned, mdSameSign cov.PointID
	// ALU corner observations.
	aluZero, shamtZero, opsEqual cov.PointID
	// Traps, privilege, CSR.
	trapTaken, trapFromU, inUMode, mppIsM cov.PointID
	trapCause                             []cov.PointID // parallel to trapCauses
	csrPrivViol, csrReadOnly              cov.PointID
	csrAddr                               []cov.PointID // parallel to isa.KnownCSRs
	// Deep sequence-dependent families: these are the conditions that
	// separate entangled generators from random ones.
	opFwd         [isa.NumOps]cov.PointID // result of op X consumed by the next instruction
	brTakenOp     [isa.NumOps]cov.PointID // per-branch-opcode taken
	brBackTakenOp [isa.NumOps]cov.PointID // per-branch-opcode taken backward (loops)
	loadFromText  cov.PointID
	loadFromData  cov.PointID
	storeToText   cov.PointID // self-modifying store (the Bug1 path)
	storeToData   cov.PointID
	memUnmapped   cov.PointID
	trapCauseU    []cov.PointID           // cause raised while in U-mode, parallel to uTrapCauses
	csrOpAddr     []cov.PointID           // csrProductOps × csrProductAddrs, op-major
	opInU         [isa.NumOps]cov.PointID // op retired while in U-mode (uModeOps only)

	// Tied-off-but-evaluated conditions (false every cycle on this
	// platform: no interrupts, no debug module, no ECC errors). Their
	// true bins are unreachable, exactly like the corresponding RTL.
	tieFalse []cov.PointID
}

// csrProductAddrs are the CSRs tracked in the op×address family.
var csrProductAddrs = []uint16{
	isa.CSRMStatus, isa.CSRMTVec, isa.CSRMEPC, isa.CSRMScratch, isa.CSRMCycle,
}

var csrProductOps = []isa.Op{
	isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI,
}

// uModeOps are the opcodes tracked by the "executed in U-mode" product
// family — behaviour that requires constructing a privilege drop
// (mepc/mstatus/mret) before exercising the unit in user mode.
var uModeOps = []isa.Op{
	isa.OpADD, isa.OpSUB, isa.OpSLL, isa.OpSLT, isa.OpSLTU, isa.OpXOR, isa.OpSRL,
	isa.OpSRA, isa.OpOR, isa.OpAND, isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI,
	isa.OpSLTI, isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpADDW, isa.OpSUBW,
	isa.OpADDIW, isa.OpSLLW, isa.OpLUI, isa.OpAUIPC, isa.OpJAL, isa.OpJALR,
	isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU,
	isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpSB, isa.OpSH,
	isa.OpSW, isa.OpSD, isa.OpMUL, isa.OpMULH, isa.OpDIV, isa.OpREM, isa.OpMULW,
	isa.OpECALL, isa.OpFENCE,
}

// Rocket is the DUT factory: it owns the coverage space; Run simulates
// one test image with fresh microarchitectural state.
type Rocket struct {
	space *cov.Space
	p     points
}

var _ rtl.DUT = (*Rocket)(nil)

// New builds the Rocket model and its condition space.
func New() *Rocket {
	s := cov.NewSpace()
	var p points

	p.icacheHit = s.Define("frontend.icache.hit")
	p.fetchFault = s.Define("frontend.fetch.access_fault")
	p.fenceiFlush = s.Define("frontend.icache.fencei_flush")
	p.btbHit = s.Define("frontend.btb.hit")
	p.bhtPredTaken = s.Define("frontend.bht.pred_taken")
	p.rasOverflow = s.Define("frontend.ras.push_overflow")
	p.rasEmpty = s.Define("frontend.ras.pop_empty")
	p.rasCorrect = s.Define("frontend.ras.pred_correct")

	p.illegal = s.Define("decode.illegal")
	p.compressed = s.Define("decode.compressed_parcel")
	p.rdX0 = s.Define("decode.rd_is_x0")
	p.rs1X0 = s.Define("decode.rs1_is_x0")
	p.rs2X0 = s.Define("decode.rs2_is_x0")
	p.immNeg = s.Define("decode.imm_negative")
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		p.opSeen[op] = s.Define("decode.op." + op.String())
	}

	p.loadUse = s.Define("pipe.hazard.load_use_stall")
	p.bypExRs1 = s.Define("pipe.bypass.ex_to_rs1")
	p.bypExRs2 = s.Define("pipe.bypass.ex_to_rs2")
	p.bypMemRs1 = s.Define("pipe.bypass.mem_to_rs1")
	p.bypMemRs2 = s.Define("pipe.bypass.mem_to_rs2")
	p.muldivBusy = s.Define("pipe.hazard.muldiv_busy")
	p.csrStall = s.Define("pipe.hazard.csr_serialize")
	p.wbX0 = s.Define("pipe.wb.rd_is_x0")

	p.brTaken = s.Define("branch.taken")
	p.brMispredict = s.Define("branch.direction_mispredict")
	p.btbWrongTarget = s.Define("branch.btb_target_wrong")
	p.brBackward = s.Define("branch.backward")
	p.jalrRet = s.Define("branch.jalr_is_ret")
	p.jalrCall = s.Define("branch.jalr_is_call")

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
	p.mdSameSign = s.Define("muldiv.same_sign_operands")

	p.aluZero = s.Define("alu.result_zero")
	p.shamtZero = s.Define("alu.shamt_zero")
	p.opsEqual = s.Define("alu.operands_equal")

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

	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		p.opFwd[op] = s.Define("pipe.fwd.op." + op.String())
	}
	for _, op := range []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU} {
		p.brTakenOp[op] = s.Define("branch.taken." + op.String())
		p.brBackTakenOp[op] = s.Define("branch.taken_backward." + op.String())
	}
	p.loadFromText = s.Define("lsu.load_from_text")
	p.loadFromData = s.Define("lsu.load_from_data")
	p.storeToText = s.Define("lsu.store_to_text")
	p.storeToData = s.Define("lsu.store_to_data")
	p.memUnmapped = s.Define("lsu.addr_unmapped_region")
	for _, c := range uTrapCauses {
		p.trapCauseU = append(p.trapCauseU, s.Define("trap.umode_cause."+isa.ExcName(c)))
	}
	for _, op := range csrProductOps {
		for _, addr := range csrProductAddrs {
			p.csrOpAddr = append(p.csrOpAddr, s.Define("csr.access."+op.String()+"."+isa.CSRName(addr)))
		}
	}
	for _, op := range uModeOps {
		p.opInU[op] = s.Define("priv.umode_op." + op.String())
	}

	for _, name := range []string{
		"interrupt.msip_pending", "interrupt.mtip_pending", "interrupt.meip_pending",
		"interrupt.taken", "debug.halt_request", "debug.single_step",
		"dcache.ecc_error", "icache.parity_error", "buserr.slave_error",
		"clint.mmio_access", "plic.mmio_access", "frontend.tlb_ptw_request",
	} {
		p.tieFalse = append(p.tieFalse, s.Define("tieoff."+name))
	}
	// Never-evaluated conditions: present in the RTL (PMP, Sv39 MMU,
	// debug SBA) but without stimulus in this platform, they never
	// evaluate — both bins stay unreachable, as on the real core.
	for _, name := range []string{
		"pmp.cfg0_match", "pmp.cfg1_match", "pmp.cfg2_match", "pmp.cfg3_match",
		"pmp.cfg4_match", "pmp.cfg5_match", "pmp.cfg6_match", "pmp.cfg7_match",
		"pmp.napot_decode", "pmp.tor_decode", "pmp.lock_bit",
		"vm.sv39_mode", "vm.pte_valid", "vm.pte_leaf", "vm.page_fault_inst",
		"vm.page_fault_load", "vm.page_fault_store", "vm.superpage",
		"debug.sba_busy", "debug.abstract_cmd", "debug.progbuf_exec",
	} {
		s.Define("dead." + name)
	}

	return &Rocket{space: s, p: p}
}

// Name implements rtl.DUT.
func (r *Rocket) Name() string { return "rocket" }

// Space implements rtl.DUT.
func (r *Rocket) Space() *cov.Space { return r.space }

// run is the per-test simulation state. A field a later step reads
// goes into same, and one that only counts into repeat: the cycle check
// (hart.Marks) relies on both.
type run struct {
	r   *Rocket
	m   *mem.Memory
	pc  uint64
	x   [32]uint64
	prv isa.Priv
	csr hart.CSRFile

	resValid bool
	resAddr  uint64

	uarch.Core

	set      *cov.Set
	cycles   uint64
	opCount  [isa.NumOps]uint32
	decoded  uint64
	opCountU [isa.NumOps]uint32
	decodedU uint64
	tr       []trace.Entry

	halted   bool
	exitCode uint64

	// Writeback bookkeeping of the previous two instructions for
	// bypass/hazard conditions.
	prevRd        isa.Reg
	prevOp        isa.Op
	prevWasLoad   bool
	prev2Rd       isa.Reg
	lastWasMulDiv bool

	amoRdVal uint64 // rd result of the in-flight AMO
}

// cacheCfgI and cacheCfgD size the L1 caches (shared by Run and the
// reusable runner so both paths model the identical core).
var (
	cacheCfgI = uarch.CacheConfig{Sets: 64, Ways: 2, LineBytes: 64}
	cacheCfgD = uarch.CacheConfig{Sets: 64, Ways: 4, LineBytes: 64}
)

const (
	bhtEntries = 256
	btbEntries = 32
	rasDepth   = 4
)

func newCore() uarch.Core {
	return uarch.NewCore(cacheCfgI, cacheCfgD, bhtEntries, btbEntries, rasDepth)
}

// Run implements rtl.DUT: the from-reset oracle, every block and the
// memory freshly allocated.
func (r *Rocket) Run(img mem.Image, maxInsts int) rtl.Result {
	m := mem.Platform()
	m.Load(img)
	st := r.reset(m, img.Entry, newCore(), r.space.NewSet(), nil)
	return st.exec(maxInsts, new(mark))
}

// reset returns the state of a core out of reset about to fetch entry.
func (r *Rocket) reset(m *mem.Memory, entry uint64, core uarch.Core, set *cov.Set, tr []trace.Entry) run {
	return run{
		r:    r,
		m:    m,
		pc:   entry,
		prv:  isa.PrivM,
		csr:  hart.CSRFile{MPP: isa.PrivU},
		Core: core,
		set:  set,
		tr:   tr[:0],
	}
}

// mark is the cycle check's scratch: the run and its blocks as they
// stood at the last mark.
type mark struct {
	hart.Marks
	st      run
	core    uarch.Mark
	repeats int // runs completed by copy, for tests
}

// exec drives the pipeline model for up to maxInsts more instructions
// and packages the result. A run caught in a cycle is completed by copy
// (hart.Marks), which reports what stepping it out would.
func (st *run) exec(maxInsts int, mk *mark) rtl.Result {
	mk.Drop()
	for i := 1; i <= maxInsts && !st.halted; i++ {
		st.step()
		if mk.Take(i) {
			mk.st = *st
			mk.core.Take(st.Core)
		} else if mk.Clean(&st.tr[len(st.tr)-1]) && st.same(&mk.st) && mk.core.Same(st.Core) {
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

// runner is a reusable execution context: platform memory and the
// microarchitectural blocks are allocated once and reset per run. The
// coverage set and trace buffer come from the caller, so once the
// memory has a page for every address the tests touch and the trace
// buffer has grown to the longest run, RunScratch allocates nothing
// (TestRunScratchAllocFree).
//
// A runner keeps at most one checkpoint. The first image with Body != 0
// runs from reset to pc == Body, and the state there is kept iff the
// prologue was clean (uarch.Capture); the verdict, either way, is final.
// A later run resumes from the copy iff its Entry and Body are the
// checkpoint's, its budget reaches past the prologue and its freshly
// loaded memory equals every checkpointed I-cache line
// (uarch.Checkpoint.Usable); any other run goes from reset.
type runner struct {
	r    *Rocket
	m    *mem.Memory
	core uarch.Core
	st   run

	ck      *uarch.Checkpoint // nil until an image with a Body has run
	ckRun   run               // st at ck
	resumes int               // runs that started from ck

	mk mark
}

// NewRunner implements rtl.ReusableDUT.
func (r *Rocket) NewRunner() rtl.Runner {
	return &runner{r: r, m: mem.Platform(), core: newCore()}
}

// RunScratch implements rtl.Runner. Behaviour is bit-identical to Run:
// the reset scratch is observationally a fresh core, and the checkpoint
// is the state that core reaches at img.Body.
func (w *runner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	w.m.Reset()
	w.m.Load(img)
	if w.ck.Usable(img.Entry, img.Body, maxInsts, w.m) {
		w.st = w.ckRun
		w.st.set, w.st.tr = set, w.ck.Restore(w.core, set, tr)
		w.resumes++
		n := len(w.st.tr)
		res := w.st.exec(maxInsts-n, &w.mk)
		res.Restored = n
		return res
	}
	w.core.Reset()
	w.st = w.r.reset(w.m, img.Entry, w.core, set, tr)
	n := 0
	if w.ck == nil && img.Body != 0 {
		// The prologue records into a set of its own, so the checkpoint
		// holds its coverage alone whatever the caller's set held.
		w.st.set = w.r.space.NewSet()
		for ; n < maxInsts && !w.st.halted && w.st.pc != img.Body; n++ {
			w.st.step()
		}
		w.ck = uarch.Capture(w.core, img.Entry, img.Body, !w.st.halted && w.st.pc == img.Body, w.st.set, set, w.st.tr)
		w.st.set = set
		w.ckRun = w.st
		w.ckRun.set, w.ckRun.tr = nil, nil // the caller's
	}
	return w.st.exec(maxInsts-n, &w.mk)
}

// same reports whether st stands where was did, counters aside. The
// blocks are uarch.Mark's to compare, and amoRdVal is read only in the
// step that sets it.
func (st *run) same(was *run) bool {
	return st.pc == was.pc && st.x == was.x && st.prv == was.prv && st.csr.SameState(&was.csr) &&
		st.resValid == was.resValid && st.resAddr == was.resAddr &&
		st.prevRd == was.prevRd && st.prevOp == was.prevOp && st.prevWasLoad == was.prevWasLoad &&
		st.prev2Rd == was.prev2Rd && st.lastWasMulDiv == was.lastWasMulDiv
}

// repeat completes by copy the whole periods of a run that has come back
// to was after p steps with left steps of budget to go: their entries
// are appended and every counter moves on by as many periods. It
// returns the steps it accounted for.
func (st *run) repeat(was *run, p, left int) int {
	n := left / p
	st.tr = trace.Repeat(st.tr, p, n)
	k := uint64(n)
	st.cycles += k * (st.cycles - was.cycles)
	st.csr.Repeat(&was.csr, k)
	st.decoded += k * (st.decoded - was.decoded)
	st.decodedU += k * (st.decodedU - was.decodedU)
	for op := range st.opCount {
		st.opCount[op] += uint32(k) * (st.opCount[op] - was.opCount[op])
		st.opCountU[op] += uint32(k) * (st.opCountU[op] - was.opCountU[op])
	}
	return n * p
}

func (st *run) charge(c uint64) { st.cycles += c; st.csr.Cycle += c }

func (st *run) trap(e *trace.Entry, cause, tval uint64) {
	p := &st.r.p
	e.Trap, e.Cause, e.TVal = true, cause, tval
	st.set.Cond(p.trapFromU, st.prv == isa.PrivU)
	for i, c := range trapCauses {
		st.set.Cond(p.trapCause[i], c == cause)
	}
	if st.prv == isa.PrivU {
		for i, c := range uTrapCauses {
			st.set.Cond(p.trapCauseU[i], c == cause)
		}
	}
	st.pc, st.prv = st.csr.TakeTrap(st.pc, cause, tval, st.prv)
	st.resValid = false
	st.charge(cycTrap)
	// A trap flushes the pipeline: no bypass sources survive.
	st.prevRd, st.prev2Rd, st.prevWasLoad = 0, 0, false
}

func (st *run) setReg(rd isa.Reg, v uint64) {
	if rd != 0 {
		st.x[rd] = v
	}
}

// step simulates one instruction through the modelled pipeline.
func (st *run) step() {
	p := &st.r.p
	c := st.set
	st.charge(cycBase)

	st.tr = append(st.tr, trace.Entry{PC: st.pc, Priv: st.prv})
	e := &st.tr[len(st.tr)-1]

	c.Cond(p.inUMode, st.prv == isa.PrivU)

	// --- Fetch ---
	if c.Cond(p.fetchFault, !st.m.Mapped(st.pc, 4)) {
		st.set.Cond(p.trapTaken, true)
		st.trap(e, isa.ExcInstAccessFault, st.pc)
		return
	}
	raw, hit := st.IC.Fetch(st.pc, st.m) // Bug1: possibly stale bytes
	if !c.Cond(p.icacheHit, hit) {
		st.charge(cycICacheMiss)
	}
	e.Raw = raw

	// --- Decode ---
	inst := isa.Decode(raw)
	e.Op = inst.Op
	st.decoded++
	st.opCount[inst.Op]++
	if st.prv == isa.PrivU {
		st.decodedU++
		st.opCountU[inst.Op]++
	}
	c.Cond(p.compressed, raw&3 != 3)
	if c.Cond(p.illegal, !inst.Valid()) {
		c.Cond(p.trapTaken, true)
		st.trap(e, isa.ExcIllegalInstruction, uint64(raw))
		return
	}
	c.Cond(p.rdX0, inst.Rd == 0)
	c.Cond(p.rs1X0, inst.Rs1 == 0)
	c.Cond(p.rs2X0, inst.Rs2 == 0)
	if inst.Op.Format() == isa.FmtI || inst.Op.Format() == isa.FmtS {
		c.Cond(p.immNeg, inst.Imm < 0)
	}

	// --- Hazard & bypass observation (previous instructions' rd) ---
	usesRs1 := inst.Rs1 != 0
	usesRs2 := inst.Rs2 != 0 && (inst.Op.Format() == isa.FmtR || inst.Op.Format() == isa.FmtS ||
		inst.Op.Format() == isa.FmtB || inst.Op.Format() == isa.FmtAMO)
	if c.Cond(p.loadUse, st.prevWasLoad && st.prevRd != 0 &&
		((usesRs1 && inst.Rs1 == st.prevRd) || (usesRs2 && inst.Rs2 == st.prevRd))) {
		st.charge(cycLoadUse)
	}
	c.Cond(p.bypExRs1, usesRs1 && st.prevRd != 0 && inst.Rs1 == st.prevRd)
	c.Cond(p.bypExRs2, usesRs2 && st.prevRd != 0 && inst.Rs2 == st.prevRd)
	c.Cond(p.bypMemRs1, usesRs1 && st.prev2Rd != 0 && inst.Rs1 == st.prev2Rd)
	c.Cond(p.bypMemRs2, usesRs2 && st.prev2Rd != 0 && inst.Rs2 == st.prev2Rd)
	if st.prevOp != isa.OpIllegal && st.prevRd != 0 {
		dependent := (usesRs1 && inst.Rs1 == st.prevRd) || (usesRs2 && inst.Rs2 == st.prevRd)
		c.Cond(p.opFwd[st.prevOp], dependent)
	}

	op := inst.Op
	a, b := st.x[inst.Rs1], st.x[inst.Rs2]
	nextPC := st.pc + 4
	rdWrite := false
	var rdVal uint64

	// MUL/DIV structural hazard: unit busy if the previous instruction
	// was also MUL/DIV (single non-pipelined unit).
	isMulDiv := op.IsAny(isa.ClassMul | isa.ClassDiv)
	c.Cond(p.muldivBusy, isMulDiv && st.prevWasMulDiv())
	c.Cond(p.csrStall, op.Is(isa.ClassCSR))

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
		isCall := inst.Rd == isa.RA
		c.Cond(p.jalrRet, isRet)
		c.Cond(p.jalrCall, isCall)
		if isRet {
			pred, ok := st.RAS.Pop()
			c.Cond(p.rasEmpty, !ok)
			if ok && !c.Cond(p.rasCorrect, pred == target) {
				st.charge(cycMispredict)
			}
		} else {
			st.btbObserve(target)
		}
		if isCall {
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
		c.Cond(p.brTakenOp[op], taken)
		if taken {
			c.Cond(p.brBackTakenOp[op], inst.Imm < 0)
		}
		if c.Cond(p.brMispredict, pred != taken) {
			st.charge(cycMispredict)
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
		st.observeRegion(addr, false)
		// Finding1: Rocket prioritises the access fault over the
		// misaligned exception (the spec mandates the reverse).
		if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
			doTrap(isa.ExcLoadAccessFault, addr)
			return
		}
		if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
			doTrap(isa.ExcLoadAddrMisaligned, addr)
			return
		}
		st.dcacheAccess(addr, false)
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
		st.observeRegion(addr, true)
		if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
			doTrap(isa.ExcStoreAccessFault, addr)
			return
		}
		if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
			doTrap(isa.ExcStoreAddrMisaligned, addr)
			return
		}
		st.dcacheAccess(addr, true)
		st.m.WriteUint(addr, b, width)
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
		st.charge(cycAMO)
	case op.Is(isa.ClassALU) || isMulDiv:
		src := b
		switch op.Format() {
		case isa.FmtI, isa.FmtShift, isa.FmtShiftW:
			src = uint64(inst.Imm)
		}
		if isMulDiv {
			st.observeMulDiv(op, a, src)
			if op.Is(isa.ClassDiv) {
				st.charge(cycDiv)
			} else {
				st.charge(cycMul)
			}
		} else {
			c.Cond(p.opsEqual, a == src)
			if op == isa.OpSLL || op == isa.OpSRL || op == isa.OpSRA ||
				op == isa.OpSLLI || op == isa.OpSRLI || op == isa.OpSRAI {
				c.Cond(p.shamtZero, src&63 == 0)
			}
		}
		rdWrite, rdVal = true, isa.ALU(op, a, src)
		if !isMulDiv {
			c.Cond(p.aluZero, rdVal == 0)
		}
	case op.Is(isa.ClassCSR):
		st.observeCSR(inst)
		old, ok := st.csr.ExecCSR(inst, a, st.prv)
		if !ok {
			doTrap(isa.ExcIllegalInstruction, uint64(raw))
			return
		}
		st.charge(cycCSR)
		rdWrite, rdVal = true, old
	case op == isa.OpFENCE:
		// Ordering no-op on this single-hart platform.
	case op == isa.OpFENCEI:
		c.Cond(p.fenceiFlush, true)
		st.IC.Flush()
		st.charge(cycFenceI)
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
	case op == isa.OpWFI:
		// No interrupts on this platform: retires as a no-op.
	}
	if trapped {
		return
	}
	c.Cond(p.trapTaken, false)

	// --- Writeback & tracer ---
	if rdWrite {
		st.setReg(inst.Rd, rdVal)
		c.Cond(p.wbX0, inst.Rd == 0)
		st.emitRdWrite(e, inst, rdVal)
	}

	st.pc = nextPC
	st.csr.Instret++
	st.prev2Rd = st.prevRd
	if rdWrite {
		st.prevRd = inst.Rd
	} else {
		st.prevRd = 0
	}
	st.prevOp = op
	st.prevWasLoad = op.Is(isa.ClassLoad) && !op.Is(isa.ClassAMO)
	st.lastWasMulDiv = isMulDiv
}

// emitRdWrite applies RocketCore's tracer behaviour, including Bug2,
// Finding2 and Finding3. The register file itself is always updated
// correctly; only the trace reporting is wrong.
func (st *run) emitRdWrite(e *trace.Entry, inst isa.Inst, rdVal uint64) {
	op := inst.Op
	switch {
	case op.IsAny(isa.ClassMul | isa.ClassDiv):
		// Bug2 (CWE-440): the tracer drops MUL/DIV writebacks.
		return
	case inst.Rd == 0 && op.Is(isa.ClassAMO) && !isSC(op):
		// Finding2: AMO with rd=x0 — the memory controller performs
		// the operation and the tracer reports the loaded value as a
		// write to x0.
		e.RdValid, e.Rd, e.RdVal = true, 0, rdVal
	case inst.Rd == 0 && op.Is(isa.ClassLoad) && !op.Is(isa.ClassAMO):
		// Finding3: loads with rd=x0 appear as x0 writes in the trace.
		e.RdValid, e.Rd, e.RdVal = true, 0, rdVal
	case inst.Rd != 0:
		e.RdValid, e.Rd, e.RdVal = true, inst.Rd, rdVal
	}
}

func isSC(op isa.Op) bool { return op == isa.OpSCW || op == isa.OpSCD }

// prevWasMulDiv reports whether the previous instruction occupied the
// MUL/DIV unit.
func (st *run) prevWasMulDiv() bool { return st.lastWasMulDiv }

// btbObserve records BTB hit/target conditions for a taken control
// transfer and trains the BTB.
func (st *run) btbObserve(target uint64) {
	p := &st.r.p
	predTarget, hit := st.BTB.Lookup(st.pc)
	st.set.Cond(p.btbHit, hit)
	if hit {
		if st.set.Cond(p.btbWrongTarget, predTarget != target) {
			st.charge(cycMispredict)
		}
	} else {
		st.charge(cycMispredict)
	}
	st.BTB.Update(st.pc, target)
}

// dcacheAccess runs the timing D-cache and records its conditions.
func (st *run) dcacheAccess(addr uint64, write bool) {
	p := &st.r.p
	res := st.DC.Access(addr, write)
	if !st.set.Cond(p.dcacheHit, res.Hit) {
		st.charge(cycDCacheMiss)
	}
	if st.set.Cond(p.dcacheEvictDirty, res.WritebackReq) {
		st.charge(cycWriteback)
	}
}

// observeMulDiv records the MUL/DIV unit's conditions.
func (st *run) observeMulDiv(op isa.Op, a, b uint64) {
	p := &st.r.p
	c := st.set
	isDiv := op.Is(isa.ClassDiv)
	word := op.Is(isa.ClassW)
	c.Cond(p.mdWord, word)
	signed := op == isa.OpMUL || op == isa.OpMULH || op == isa.OpDIV || op == isa.OpREM ||
		op == isa.OpMULW || op == isa.OpDIVW || op == isa.OpREMW || op == isa.OpMULHSU
	c.Cond(p.mdSigned, signed)
	c.Cond(p.mdSameSign, int64(a) < 0 == (int64(b) < 0))
	if isDiv {
		if word {
			c.Cond(p.divByZero, uint32(b) == 0)
			c.Cond(p.divOverflow, int32(uint32(a)) == -1<<31 && int32(uint32(b)) == -1)
		} else {
			c.Cond(p.divByZero, b == 0)
			c.Cond(p.divOverflow, int64(a) == -1<<63 && int64(b) == -1)
		}
	}
}

// observeRegion records which platform region a data access targets.
func (st *run) observeRegion(addr uint64, write bool) {
	p := &st.r.p
	c := st.set
	inText := addr >= mem.TextBase && addr < mem.TextBase+mem.TextSize
	inData := addr >= mem.DataBase && addr < mem.DataBase+mem.DataSize
	if write {
		c.Cond(p.storeToText, inText)
		c.Cond(p.storeToData, inData)
	} else {
		c.Cond(p.loadFromText, inText)
		c.Cond(p.loadFromData, inData)
	}
	c.Cond(p.memUnmapped, !inText && !inData && addr != mem.Tohost)
}

// observeCSR records CSR address-match and permission conditions.
func (st *run) observeCSR(inst isa.Inst) {
	p := &st.r.p
	c := st.set
	for i, addr := range isa.KnownCSRs {
		c.Cond(p.csrAddr[i], addr == inst.CSR)
	}
	ids := p.csrOpAddr
	for _, op := range csrProductOps {
		for i, addr := range csrProductAddrs {
			c.Cond(ids[i], op == inst.Op && addr == inst.CSR)
		}
		ids = ids[len(csrProductAddrs):]
	}
	_, readable := st.csr.Read(inst.CSR, st.prv)
	_, readableM := st.csr.Read(inst.CSR, isa.PrivM)
	c.Cond(p.csrPrivViol, !readable && readableM)
	// Write-to-read-only condition: a write is attempted and the CSR
	// is in the read-only address space (top two bits set).
	writes := inst.Op == isa.OpCSRRW || inst.Op == isa.OpCSRRWI ||
		(inst.Op == isa.OpCSRRS && inst.Rs1 != 0) || (inst.Op == isa.OpCSRRC && inst.Rs1 != 0) ||
		((inst.Op == isa.OpCSRRSI || inst.Op == isa.OpCSRRCI) && inst.Imm != 0)
	c.Cond(p.csrReadOnly, writes && inst.CSR>>10 == 3)
}

func resGranule(addr uint64) uint64 { return addr &^ 7 }

// execAMO handles the A extension with Rocket's Finding1 priority
// inversion; returns false if the instruction trapped.
func (st *run) execAMO(inst isa.Inst, e *trace.Entry, doTrap func(cause, tval uint64)) bool {
	p := &st.r.p
	c := st.set
	op := inst.Op
	addr := st.x[inst.Rs1]
	width, signed := isa.MemWidth(op)

	misCause, accCause := isa.ExcStoreAddrMisaligned, isa.ExcStoreAccessFault
	if op == isa.OpLRW || op == isa.OpLRD {
		misCause, accCause = isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault
	}
	st.observeRegion(addr, op != isa.OpLRW && op != isa.OpLRD)
	// Finding1 applies to AMOs too: access fault checked first.
	if c.Cond(p.memFault, !st.m.Mapped(addr, width)) {
		doTrap(accCause, addr)
		return false
	}
	if c.Cond(p.memMisaligned, addr%uint64(width) != 0) {
		doTrap(misCause, addr)
		return false
	}

	sext := func(v uint64) uint64 {
		if signed && width == 4 {
			return uint64(int64(int32(uint32(v))))
		}
		return v
	}

	st.dcacheAccess(addr, op != isa.OpLRW && op != isa.OpLRD)
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

// finalize converts the per-op decode counters into their condition
// bins (exact lazy evaluation of "opcode == X" conditions) and records
// the tied-off conditions.
func (st *run) finalize() {
	p := &st.r.p
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		n := uint64(st.opCount[op])
		if n > 0 {
			st.set.Cond(p.opSeen[op], true)
		}
		if st.decoded > n {
			st.set.Cond(p.opSeen[op], false)
		}
	}
	for _, op := range uModeOps {
		n := uint64(st.opCountU[op])
		if n > 0 {
			st.set.Cond(p.opInU[op], true)
		}
		if st.decodedU > n {
			st.set.Cond(p.opInU[op], false)
		}
	}
	if st.decoded > 0 {
		for _, id := range p.tieFalse {
			st.set.Cond(id, false)
		}
	}
}
