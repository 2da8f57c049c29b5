// Package hart holds the architectural machine-mode state shared by
// the golden-model ISS and the DUT core models: the CSR file, trap
// entry/return sequencing, and the CSR instruction read-modify-write
// rules.
//
// Sharing this logic guarantees that ISS-vs-DUT divergences can only
// come from the deliberately injected findings (cache staleness, trace
// bugs, exception-priority inversion), never from accidental CSR drift.
//
//chatfuzz:deterministic package
package hart

import "chatfuzz/internal/isa"

// CSRFile is the machine-mode CSR state of one hart.
type CSRFile struct {
	MIEBit bool // mstatus.MIE
	MPIE   bool // mstatus.MPIE
	MPP    isa.Priv

	MTVec    uint64
	MScratch uint64
	MEPC     uint64
	MCause   uint64
	MTVal    uint64
	MIEReg   uint64

	// Cycle counts core cycles (the ISS charges one per instruction;
	// the DUTs charge microarchitectural cost, so mcycle legitimately
	// diverges and the Mismatch Detector filters it). Instret counts
	// retired instructions and must match between simulators.
	Cycle   uint64
	Instret uint64
}

// MStatus composes the architectural mstatus value.
func (c *CSRFile) MStatus() uint64 {
	v := uint64(0)
	if c.MIEBit {
		v |= isa.MStatusMIE
	}
	if c.MPIE {
		v |= isa.MStatusMPIE
	}
	v |= uint64(c.MPP) << isa.MStatusMPPShift
	return v
}

// SetMStatus decomposes a written mstatus value (WARL: MPP is clamped
// to the implemented M/U set).
func (c *CSRFile) SetMStatus(v uint64) {
	c.MIEBit = v&isa.MStatusMIE != 0
	c.MPIE = v&isa.MStatusMPIE != 0
	mpp := isa.Priv(v >> isa.MStatusMPPShift & 3)
	if mpp != isa.PrivU {
		mpp = isa.PrivM
	}
	c.MPP = mpp
}

// MISAValue is the misa encoding: RV64 (MXL=2) with I, M, A and U.
const MISAValue = uint64(2)<<62 | 1<<('i'-'a') | 1<<('m'-'a') | 1<<('a'-'a') | 1<<('u'-'a')

// Read returns a CSR value; ok=false when the CSR does not exist or is
// not accessible at the given privilege level.
func (c *CSRFile) Read(addr uint16, priv isa.Priv) (uint64, bool) {
	if isa.Priv((addr>>8)&3) > priv {
		return 0, false
	}
	switch addr {
	case isa.CSRMStatus:
		return c.MStatus(), true
	case isa.CSRMISA:
		return MISAValue, true
	case isa.CSRMIE:
		return c.MIEReg, true
	case isa.CSRMIP:
		return 0, true
	case isa.CSRMTVec:
		return c.MTVec, true
	case isa.CSRMScratch:
		return c.MScratch, true
	case isa.CSRMEPC:
		return c.MEPC, true
	case isa.CSRMCause:
		return c.MCause, true
	case isa.CSRMTVal:
		return c.MTVal, true
	case isa.CSRMCycle, isa.CSRCycle, isa.CSRTime:
		return c.Cycle, true
	case isa.CSRMInstret, isa.CSRInstret:
		return c.Instret, true
	case isa.CSRMVendor, isa.CSRMArchID, isa.CSRMImpID, isa.CSRMHartID:
		return 0, true
	}
	return 0, false
}

// Write updates a CSR; ok=false when the CSR is read-only or does not
// exist. Privilege must have been checked via Read first (the CSR
// instructions always read).
func (c *CSRFile) Write(addr uint16, v uint64) bool {
	switch addr {
	case isa.CSRMStatus:
		c.SetMStatus(v)
	case isa.CSRMISA:
		// WARL; writes ignored.
	case isa.CSRMIE:
		c.MIEReg = v & 0xAAA
	case isa.CSRMIP:
		// Read-only bits on this platform; write is legal, ignored.
	case isa.CSRMTVec:
		c.MTVec = v &^ 3 // direct mode only
	case isa.CSRMScratch:
		c.MScratch = v
	case isa.CSRMEPC:
		c.MEPC = v &^ 3 // IALIGN=32 (no C extension): mepc[1:0]=0
	case isa.CSRMCause:
		c.MCause = v
	case isa.CSRMTVal:
		c.MTVal = v
	case isa.CSRMCycle:
		c.Cycle = v
	case isa.CSRMInstret:
		c.Instret = v
	default:
		return false
	}
	return true
}

// TakeTrap performs machine trap entry and returns the new PC and
// privilege level.
func (c *CSRFile) TakeTrap(pc, cause, tval uint64, priv isa.Priv) (uint64, isa.Priv) {
	c.MEPC = pc
	c.MCause = cause
	c.MTVal = tval
	c.MPIE = c.MIEBit
	c.MIEBit = false
	c.MPP = priv
	return c.MTVec, isa.PrivM
}

// MRet performs the mret state update and returns the new PC and
// privilege level. The caller must have verified that the current
// privilege is M.
func (c *CSRFile) MRet() (uint64, isa.Priv) {
	pc := c.MEPC
	priv := c.MPP
	c.MIEBit = c.MPIE
	c.MPIE = true
	c.MPP = isa.PrivU
	return pc, priv
}

// ExecCSR applies a Zicsr instruction's read-modify-write. rs1Val is
// the rs1 register value (ignored for immediate forms). It returns the
// old CSR value for rd; ok=false means the access is illegal (missing
// CSR, insufficient privilege, or write to a read-only CSR).
func (c *CSRFile) ExecCSR(inst isa.Inst, rs1Val uint64, priv isa.Priv) (old uint64, ok bool) {
	old, ok = c.Read(inst.CSR, priv)
	if !ok {
		return 0, false
	}
	src := rs1Val
	switch inst.Op {
	case isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI:
		src = uint64(inst.Imm)
	}
	var wval uint64
	var write bool
	switch inst.Op {
	case isa.OpCSRRW, isa.OpCSRRWI:
		wval, write = src, true
	case isa.OpCSRRS:
		wval, write = old|src, inst.Rs1 != 0
	case isa.OpCSRRSI:
		wval, write = old|src, src != 0
	case isa.OpCSRRC:
		wval, write = old&^src, inst.Rs1 != 0
	case isa.OpCSRRCI:
		wval, write = old&^src, src != 0
	}
	if write && !c.Write(inst.CSR, wval) {
		return 0, false
	}
	return old, true
}
