package isa

import "fmt"

// Machine-mode CSR addresses implemented by the simulators (a practical
// subset of the privileged spec: trap handling, counters, identity).
const (
	CSRMStatus  uint16 = 0x300
	CSRMISA     uint16 = 0x301
	CSRMIE      uint16 = 0x304
	CSRMTVec    uint16 = 0x305
	CSRMScratch uint16 = 0x340
	CSRMEPC     uint16 = 0x341
	CSRMCause   uint16 = 0x342
	CSRMTVal    uint16 = 0x343
	CSRMIP      uint16 = 0x344
	CSRMCycle   uint16 = 0xB00
	CSRMInstret uint16 = 0xB02
	CSRMVendor  uint16 = 0xF11
	CSRMArchID  uint16 = 0xF12
	CSRMImpID   uint16 = 0xF13
	CSRMHartID  uint16 = 0xF14
	CSRCycle    uint16 = 0xC00
	CSRTime     uint16 = 0xC01
	CSRInstret  uint16 = 0xC02
)

var csrNames = map[uint16]string{
	CSRMStatus:  "mstatus",
	CSRMISA:     "misa",
	CSRMIE:      "mie",
	CSRMTVec:    "mtvec",
	CSRMScratch: "mscratch",
	CSRMEPC:     "mepc",
	CSRMCause:   "mcause",
	CSRMTVal:    "mtval",
	CSRMIP:      "mip",
	CSRMCycle:   "mcycle",
	CSRMInstret: "minstret",
	CSRMVendor:  "mvendorid",
	CSRMArchID:  "marchid",
	CSRMImpID:   "mimpid",
	CSRMHartID:  "mhartid",
	CSRCycle:    "cycle",
	CSRTime:     "time",
	CSRInstret:  "instret",
}

// CSRName returns the architectural name of a CSR address, or a hex
// literal for unimplemented addresses.
func CSRName(addr uint16) string {
	if n, ok := csrNames[addr]; ok {
		return n
	}
	return fmt.Sprintf("0x%03x", addr)
}

// KnownCSRs lists the implemented CSR addresses in a stable order, used
// by the corpus generator and the fuzzers' instruction pools.
var KnownCSRs = []uint16{
	CSRMStatus, CSRMISA, CSRMIE, CSRMTVec, CSRMScratch,
	CSRMEPC, CSRMCause, CSRMTVal, CSRMIP,
	CSRMCycle, CSRMInstret, CSRMHartID,
}

// Exception cause codes (mcause values for synchronous traps), per the
// privileged spec.
const (
	ExcInstAddrMisaligned  uint64 = 0
	ExcInstAccessFault     uint64 = 1
	ExcIllegalInstruction  uint64 = 2
	ExcBreakpoint          uint64 = 3
	ExcLoadAddrMisaligned  uint64 = 4
	ExcLoadAccessFault     uint64 = 5
	ExcStoreAddrMisaligned uint64 = 6
	ExcStoreAccessFault    uint64 = 7
	ExcECallFromU          uint64 = 8
	ExcECallFromM          uint64 = 11
)

// ExcName returns a human-readable name for an exception cause code.
func ExcName(cause uint64) string {
	switch cause {
	case ExcInstAddrMisaligned:
		return "instruction address misaligned"
	case ExcInstAccessFault:
		return "instruction access fault"
	case ExcIllegalInstruction:
		return "illegal instruction"
	case ExcBreakpoint:
		return "breakpoint"
	case ExcLoadAddrMisaligned:
		return "load address misaligned"
	case ExcLoadAccessFault:
		return "load access fault"
	case ExcStoreAddrMisaligned:
		return "store/AMO address misaligned"
	case ExcStoreAccessFault:
		return "store/AMO access fault"
	case ExcECallFromU:
		return "environment call from U-mode"
	case ExcECallFromM:
		return "environment call from M-mode"
	}
	return fmt.Sprintf("cause %d", cause)
}

// Priv is a privilege level.
type Priv uint8

// Privilege levels implemented by the cores (M and U; no S-mode).
const (
	PrivU Priv = 0
	PrivM Priv = 3
)

// String returns "U" or "M".
func (p Priv) String() string {
	if p == PrivM {
		return "M"
	}
	return "U"
}

// mstatus bit positions used by the simulators.
const (
	MStatusMIE      uint64 = 1 << 3
	MStatusMPIE     uint64 = 1 << 7
	MStatusMPPShift        = 11
	MStatusMPPMask  uint64 = 3 << MStatusMPPShift
)
