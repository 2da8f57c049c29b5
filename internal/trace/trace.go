// Package trace defines the commit-trace format produced by both the
// golden-model ISS and the DUT core models, and compared by the
// Mismatch Detector. One Entry is emitted per retired (or trapping)
// instruction, mirroring Spike's commit log and RocketCore's tracer
// port.
//
//chatfuzz:deterministic package
package trace

import (
	"fmt"
	"slices"
	"strings"

	"chatfuzz/internal/isa"
)

// Entry records the architecturally visible effect of one instruction.
type Entry struct {
	PC  uint64
	Raw uint32
	Op  isa.Op

	// Destination-register writeback, as reported by the tracer.
	// The golden model never reports writes to x0; RocketCore's tracer
	// bugs (Bug2, Finding2, Finding3) manifest here.
	RdValid bool
	Rd      isa.Reg
	RdVal   uint64

	// Memory effect.
	MemValid bool
	MemAddr  uint64
	MemWrite bool

	// Trap outcome. A trapping instruction retires as an Entry with
	// Trap set and no Rd/Mem effects.
	Trap  bool
	Cause uint64
	TVal  uint64

	// Privilege level the instruction executed at.
	Priv isa.Priv
}

// String renders the entry in a Spike-commit-log-like form.
func (e Entry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] pc=%016x (%08x) %s", e.Priv, e.PC, e.Raw, isa.Disassemble(e.Raw))
	if e.Trap {
		fmt.Fprintf(&b, " TRAP cause=%d (%s) tval=%#x", e.Cause, isa.ExcName(e.Cause), e.TVal)
		return b.String()
	}
	if e.RdValid {
		fmt.Fprintf(&b, " %s<-%016x", e.Rd, e.RdVal)
	}
	if e.MemValid {
		rw := "R"
		if e.MemWrite {
			rw = "W"
		}
		fmt.Fprintf(&b, " mem[%016x]%s", e.MemAddr, rw)
	}
	return b.String()
}

// Diff returns a human-readable description of the first field in
// which the entries differ, or "" if they are equal.
func Diff(a, b Entry) string {
	switch {
	case a == b:
		return ""
	case a.PC != b.PC:
		return fmt.Sprintf("pc %016x vs %016x", a.PC, b.PC)
	case a.Raw != b.Raw:
		return fmt.Sprintf("inst %08x vs %08x", a.Raw, b.Raw)
	case a.Trap != b.Trap:
		return fmt.Sprintf("trap %v vs %v", a.Trap, b.Trap)
	case a.Trap && a.Cause != b.Cause:
		return fmt.Sprintf("cause %s vs %s", isa.ExcName(a.Cause), isa.ExcName(b.Cause))
	case a.Trap && a.TVal != b.TVal:
		return fmt.Sprintf("tval %#x vs %#x", a.TVal, b.TVal)
	case a.RdValid != b.RdValid:
		return fmt.Sprintf("rd-write %v vs %v", a.RdValid, b.RdValid)
	case a.RdValid && a.Rd != b.Rd:
		return fmt.Sprintf("rd %s vs %s", a.Rd, b.Rd)
	case a.RdValid && a.RdVal != b.RdVal:
		return fmt.Sprintf("rdval %016x vs %016x", a.RdVal, b.RdVal)
	case a.MemValid != b.MemValid || a.MemAddr != b.MemAddr || a.MemWrite != b.MemWrite:
		return "memory effect differs"
	case a.Priv != b.Priv:
		return fmt.Sprintf("priv %s vs %s", a.Priv, b.Priv)
	}
	return "entries differ"
}

// Repeat appends n more copies of the last p entries of tr, the
// period of a run caught in a cycle, and returns the grown slice.
func Repeat(tr []Entry, p, n int) []Entry {
	start, total := len(tr)-p, p*(n+1)
	tr = slices.Grow(tr, p*n)[:start+total]
	for done := p; done < total; {
		done += copy(tr[start+done:start+total], tr[start:start+done])
	}
	return tr
}
