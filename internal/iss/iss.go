// Package iss implements the golden-model RISC-V instruction-set
// simulator (the paper's Spike substitute): an architecturally exact
// RV64IMA+Zicsr+Zifencei executor with M/U privilege modes, trap and
// CSR semantics per the unprivileged and privileged specifications.
//
// The ISS produces one trace.Entry per retired instruction; the
// Mismatch Detector compares this golden trace against the DUT trace.
//
// A run caught in an exact cycle — no memory written, no counter read,
// the state back where it was some steps before, Cycle and Instret
// aside — is completed by copy (hart.Marks): the trace, the registers
// and the counters are the ones stepping it out to its budget gives.
//
//chatfuzz:deterministic package
package iss

import (
	"chatfuzz/internal/hart"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/trace"
)

// ISS is the golden-model simulator state.
type ISS struct {
	PC   uint64
	X    [32]uint64
	Mem  *mem.Memory
	Priv isa.Priv
	CSR  hart.CSRFile

	// LR/SC reservation (8-byte granule; identical rule in the DUTs).
	ResValid bool
	ResAddr  uint64

	// Halted is set when the program stores a non-zero value to the
	// tohost address (riscv-tests convention).
	Halted   bool
	ExitCode uint64

	amoRd uint64 // rd result of the in-flight AMO (loaded value or SC status)
}

// New returns an ISS starting at entry with all registers zero and
// machine privilege.
func New(m *mem.Memory, entry uint64) *ISS {
	return &ISS{PC: entry, Mem: m, Priv: isa.PrivM, CSR: hart.CSRFile{MPP: isa.PrivU}}
}

// Snapshot is the architectural state of a paused simulator —
// everything except memory contents. The execution engine snapshots
// the state once after the (program-independent) harness prologue and
// starts every golden run from it, instead of re-executing the ~170
// register-init instructions per test. Memory is deliberately absent:
// the prologue performs no stores, so a freshly loaded image is
// already the correct post-prologue memory.
type Snapshot struct {
	PC       uint64
	X        [32]uint64
	Priv     isa.Priv
	CSR      hart.CSRFile
	ResValid bool
	ResAddr  uint64
}

// Snapshot captures the simulator's current architectural state.
func (s *ISS) Snapshot() Snapshot {
	return Snapshot{PC: s.PC, X: s.X, Priv: s.Priv, CSR: s.CSR,
		ResValid: s.ResValid, ResAddr: s.ResAddr}
}

// NewFromSnapshot returns a simulator resumed from a snapshot over the
// given (already loaded) memory.
func NewFromSnapshot(snap Snapshot, m *mem.Memory) *ISS {
	return &ISS{PC: snap.PC, X: snap.X, Mem: m, Priv: snap.Priv, CSR: snap.CSR,
		ResValid: snap.ResValid, ResAddr: snap.ResAddr}
}

// resGranule returns the reservation granule of an address.
func resGranule(addr uint64) uint64 { return addr &^ 7 }

// trap redirects control to the machine trap vector.
func (s *ISS) trap(cause, tval uint64) {
	s.PC, s.Priv = s.CSR.TakeTrap(s.PC, cause, tval, s.Priv)
	s.ResValid = false
}

func (s *ISS) setReg(r isa.Reg, v uint64) {
	if r != 0 {
		s.X[r] = v
	}
}

// Step executes one instruction and returns its trace entry. It
// returns ok=false (and no entry) once the simulator has halted.
func (s *ISS) Step() (trace.Entry, bool) {
	if s.Halted {
		return trace.Entry{}, false
	}
	s.CSR.Cycle++

	e := trace.Entry{PC: s.PC, Priv: s.Priv}

	// Fetch.
	if !s.Mem.Mapped(s.PC, 4) {
		e.Trap, e.Cause, e.TVal = true, isa.ExcInstAccessFault, s.PC
		s.trap(isa.ExcInstAccessFault, s.PC)
		return e, true
	}
	raw := s.Mem.ReadWord(s.PC)
	e.Raw = raw

	inst := isa.Decode(raw)
	e.Op = inst.Op
	if !inst.Valid() {
		e.Trap, e.Cause, e.TVal = true, isa.ExcIllegalInstruction, uint64(raw)
		s.trap(isa.ExcIllegalInstruction, uint64(raw))
		return e, true
	}

	nextPC := s.PC + 4
	rdWrite := false
	var rdVal uint64

	doTrap := func(cause, tval uint64) (trace.Entry, bool) {
		e.Trap, e.Cause, e.TVal = true, cause, tval
		s.trap(cause, tval)
		return e, true
	}

	op := inst.Op
	a, b := s.X[inst.Rs1], s.X[inst.Rs2]

	switch {
	case op == isa.OpLUI:
		rdWrite, rdVal = true, uint64(inst.Imm)
	case op == isa.OpAUIPC:
		rdWrite, rdVal = true, s.PC+uint64(inst.Imm)
	case op == isa.OpJAL:
		target := s.PC + uint64(inst.Imm)
		if target%4 != 0 {
			return doTrap(isa.ExcInstAddrMisaligned, target)
		}
		rdWrite, rdVal = true, s.PC+4
		nextPC = target
	case op == isa.OpJALR:
		target := (a + uint64(inst.Imm)) &^ 1
		if target%4 != 0 {
			return doTrap(isa.ExcInstAddrMisaligned, target)
		}
		rdWrite, rdVal = true, s.PC+4
		nextPC = target
	case op.Is(isa.ClassBranch):
		if isa.BranchTaken(op, a, b) {
			target := s.PC + uint64(inst.Imm)
			if target%4 != 0 {
				return doTrap(isa.ExcInstAddrMisaligned, target)
			}
			nextPC = target
		}
	case op.Is(isa.ClassLoad) && !op.Is(isa.ClassAMO):
		addr := a + uint64(inst.Imm)
		width, signed := isa.MemWidth(op)
		// Golden model: spec priority puts misaligned above access fault.
		if addr%uint64(width) != 0 {
			return doTrap(isa.ExcLoadAddrMisaligned, addr)
		}
		if !s.Mem.Mapped(addr, width) {
			return doTrap(isa.ExcLoadAccessFault, addr)
		}
		v := s.Mem.ReadUint(addr, width)
		if signed {
			shift := uint(64 - 8*width)
			v = uint64(int64(v<<shift) >> shift)
		}
		rdWrite, rdVal = true, v
		e.MemValid, e.MemAddr = true, addr
	case op.Is(isa.ClassStore) && !op.Is(isa.ClassAMO):
		addr := a + uint64(inst.Imm)
		width, _ := isa.MemWidth(op)
		if addr%uint64(width) != 0 {
			return doTrap(isa.ExcStoreAddrMisaligned, addr)
		}
		if !s.Mem.Mapped(addr, width) {
			return doTrap(isa.ExcStoreAccessFault, addr)
		}
		s.Mem.WriteUint(addr, b, width)
		if s.ResValid && resGranule(addr) == s.ResAddr {
			s.ResValid = false
		}
		e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
		if addr == mem.Tohost && width == 8 && b != 0 {
			s.Halted, s.ExitCode = true, b
		}
	case op.Is(isa.ClassAMO):
		ent, ok2 := s.execAMO(inst, &e)
		if !ok2 {
			return ent, true
		}
		rdWrite, rdVal = true, s.amoRd
	case op.Is(isa.ClassALU) || op.IsAny(isa.ClassMul|isa.ClassDiv):
		src := b
		switch op.Format() {
		case isa.FmtI, isa.FmtShift, isa.FmtShiftW:
			src = uint64(inst.Imm)
		}
		rdWrite, rdVal = true, isa.ALU(op, a, src)
	case op.Is(isa.ClassCSR):
		old, ok2 := s.CSR.ExecCSR(inst, a, s.Priv)
		if !ok2 {
			return doTrap(isa.ExcIllegalInstruction, uint64(raw))
		}
		rdWrite, rdVal = true, old
	case op == isa.OpFENCE || op == isa.OpFENCEI:
		// Architectural no-ops in the golden model.
	case op == isa.OpECALL:
		if s.Priv == isa.PrivM {
			return doTrap(isa.ExcECallFromM, 0)
		}
		return doTrap(isa.ExcECallFromU, 0)
	case op == isa.OpEBREAK:
		return doTrap(isa.ExcBreakpoint, s.PC)
	case op == isa.OpMRET:
		if s.Priv != isa.PrivM {
			return doTrap(isa.ExcIllegalInstruction, uint64(raw))
		}
		nextPC, s.Priv = s.CSR.MRet()
	case op == isa.OpWFI:
		// Treated as a no-op (legal in U-mode with TW=0).
	default:
		return doTrap(isa.ExcIllegalInstruction, uint64(raw))
	}

	if rdWrite {
		s.setReg(inst.Rd, rdVal)
		if inst.Rd != 0 {
			e.RdValid, e.Rd, e.RdVal = true, inst.Rd, rdVal
		}
	}
	s.PC = nextPC
	s.CSR.Instret++
	return e, true
}

func (s *ISS) execAMO(inst isa.Inst, e *trace.Entry) (trace.Entry, bool) {
	op := inst.Op
	addr := s.X[inst.Rs1]
	width, signed := isa.MemWidth(op)

	misCause, accCause := isa.ExcStoreAddrMisaligned, isa.ExcStoreAccessFault
	if op == isa.OpLRW || op == isa.OpLRD {
		misCause, accCause = isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault
	}
	if addr%uint64(width) != 0 {
		e.Trap, e.Cause, e.TVal = true, misCause, addr
		s.trap(misCause, addr)
		return *e, false
	}
	if !s.Mem.Mapped(addr, width) {
		e.Trap, e.Cause, e.TVal = true, accCause, addr
		s.trap(accCause, addr)
		return *e, false
	}

	sext := func(v uint64) uint64 {
		if signed && width == 4 {
			return uint64(int64(int32(uint32(v))))
		}
		return v
	}

	switch op {
	case isa.OpLRW, isa.OpLRD:
		v := s.Mem.ReadUint(addr, width)
		s.ResValid, s.ResAddr = true, resGranule(addr)
		s.amoRd = sext(v)
		e.MemValid, e.MemAddr = true, addr
	case isa.OpSCW, isa.OpSCD:
		if s.ResValid && resGranule(addr) == s.ResAddr {
			s.Mem.WriteUint(addr, s.X[inst.Rs2], width)
			s.amoRd = 0
			e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
		} else {
			s.amoRd = 1
		}
		s.ResValid = false
	default:
		old := s.Mem.ReadUint(addr, width)
		newVal := isa.AMOApply(op, old, s.X[inst.Rs2])
		s.Mem.WriteUint(addr, newVal, width)
		s.amoRd = sext(old)
		e.MemValid, e.MemAddr, e.MemWrite = true, addr, true
	}
	return *e, true
}

// Run executes until the program halts (tohost store) or maxSteps
// instructions have been attempted, returning the commit trace.
func (s *ISS) Run(maxSteps int) []trace.Entry {
	return s.RunAppend(make([]trace.Entry, 0, 256), maxSteps)
}

// RunAppend is Run with a caller-provided buffer: entries are appended
// to buf[:0] and the (possibly re-grown) slice is returned. Execution
// workers that run one golden-model simulation per test reuse the same
// buffer across tests, keeping the hot loop allocation-free.
func (s *ISS) RunAppend(buf []trace.Entry, maxSteps int) []trace.Entry {
	return s.Continue(buf[:0], maxSteps)
}

// Continue executes until the program halts or maxSteps more
// instructions have been attempted, appending their entries to tr.
func (s *ISS) Continue(tr []trace.Entry, maxSteps int) []trace.Entry {
	var marks hart.Marks
	var was Snapshot
	for i := 1; i <= maxSteps; i++ {
		e, ok := s.Step()
		if !ok {
			break
		}
		tr = append(tr, e)
		if s.Halted {
			break
		}
		if marks.Take(i) {
			was = s.Snapshot()
		} else if marks.Clean(&tr[len(tr)-1]) && s.same(&was) {
			p := i - marks.At
			n := (maxSteps - i) / p
			tr = trace.Repeat(tr, p, n)
			s.CSR.Repeat(&was.CSR, uint64(n))
			i += n * p
			marks.Drop()
		}
	}
	return tr
}

// same reports whether s stands where it did at was, counters aside.
func (s *ISS) same(was *Snapshot) bool {
	return s.PC == was.PC && s.X == was.X && s.Priv == was.Priv && s.CSR.SameState(&was.CSR) &&
		s.ResValid == was.ResValid && s.ResAddr == was.ResAddr
}
