package isa

import "fmt"

// Disassemble renders a 32-bit instruction word as assembler text. It
// never panics; illegal encodings render as ".word 0x…". This is the
// deterministic reward agent of ChatFuzz training step 2.
func Disassemble(raw uint32) string {
	return DisassembleInst(Decode(raw))
}

// DisassembleInst renders a decoded instruction as assembler text.
func DisassembleInst(i Inst) string {
	if !i.Valid() {
		return fmt.Sprintf(".word 0x%08x", i.Raw)
	}
	name := i.Op.String()
	switch i.Op.Format() {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", name, i.Rd, i.Rs1, i.Rs2)
	case FmtI:
		if i.Op.Is(ClassLoad) {
			return fmt.Sprintf("%s %s, %d(%s)", name, i.Rd, i.Imm, i.Rs1)
		}
		if i.Op == OpJALR {
			return fmt.Sprintf("%s %s, %d(%s)", name, i.Rd, i.Imm, i.Rs1)
		}
		return fmt.Sprintf("%s %s, %s, %d", name, i.Rd, i.Rs1, i.Imm)
	case FmtShift, FmtShiftW:
		return fmt.Sprintf("%s %s, %s, %d", name, i.Rd, i.Rs1, i.Imm)
	case FmtS:
		return fmt.Sprintf("%s %s, %d(%s)", name, i.Rs2, i.Imm, i.Rs1)
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", name, i.Rs1, i.Rs2, i.Imm)
	case FmtU:
		return fmt.Sprintf("%s %s, 0x%x", name, i.Rd, uint32(i.Imm)>>12)
	case FmtJ:
		return fmt.Sprintf("%s %s, %d", name, i.Rd, i.Imm)
	case FmtCSR:
		return fmt.Sprintf("%s %s, %s, %s", name, i.Rd, CSRName(i.CSR), i.Rs1)
	case FmtCSRI:
		return fmt.Sprintf("%s %s, %s, %d", name, i.Rd, CSRName(i.CSR), i.Imm)
	case FmtAMO:
		suffix := ""
		if i.Aq {
			suffix += ".aq"
		}
		if i.Rl {
			suffix += ".rl"
		}
		if i.Op == OpLRW || i.Op == OpLRD {
			return fmt.Sprintf("%s%s %s, (%s)", name, suffix, i.Rd, i.Rs1)
		}
		return fmt.Sprintf("%s%s %s, %s, (%s)", name, suffix, i.Rd, i.Rs2, i.Rs1)
	case FmtFence, FmtSys:
		return name
	}
	return fmt.Sprintf(".word 0x%08x", i.Raw)
}

// CountInvalid reports how many of the given instruction words fail to
// decode. It is the Invalid_i term of the paper's Eq. 1 reward.
func CountInvalid(words []uint32) int {
	n := 0
	for _, w := range words {
		if !Decode(w).Valid() {
			n++
		}
	}
	return n
}
