// Package randinst generates ISA-aware random instructions — the seed
// generator both baselines share. Like TheHuzz's generator, it knows
// the valid encodings of every instruction but has no notion of
// meaningful sequencing (the gap ChatFuzz's LLM fills).
//
//chatfuzz:deterministic package
package randinst

import (
	"math/rand"

	"chatfuzz/internal/isa"
)

// allOps enumerates every encodable opcode once.
var allOps []isa.Op

func init() {
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		allOps = append(allOps, op)
	}
}

// Random returns one random valid instruction word.
func Random(rng *rand.Rand) uint32 {
	op := allOps[rng.Intn(len(allOps))]
	return RandomWithOp(rng, op)
}

// RandomWithOp returns a random valid encoding of the given opcode.
func RandomWithOp(rng *rand.Rand, op isa.Op) uint32 {
	i := isa.Inst{Op: op}
	reg := func() isa.Reg { return isa.Reg(rng.Intn(32)) }
	switch op.Format() {
	case isa.FmtR:
		i.Rd, i.Rs1, i.Rs2 = reg(), reg(), reg()
	case isa.FmtI:
		i.Rd, i.Rs1 = reg(), reg()
		i.Imm = int64(rng.Intn(1<<12)) - (1 << 11)
	case isa.FmtShift:
		i.Rd, i.Rs1 = reg(), reg()
		i.Imm = int64(rng.Intn(64))
	case isa.FmtShiftW:
		i.Rd, i.Rs1 = reg(), reg()
		i.Imm = int64(rng.Intn(32))
	case isa.FmtS:
		i.Rs1, i.Rs2 = reg(), reg()
		i.Imm = int64(rng.Intn(1<<12)) - (1 << 11)
	case isa.FmtB:
		i.Rs1, i.Rs2 = reg(), reg()
		i.Imm = int64(rng.Intn(1<<12)-1<<11) * 2
	case isa.FmtU:
		i.Rd = reg()
		i.Imm = int64(int32(uint32(rng.Intn(1<<20)) << 12))
	case isa.FmtJ:
		i.Rd = reg()
		i.Imm = int64(rng.Intn(1<<20)-1<<19) * 2
	case isa.FmtCSR:
		i.Rd, i.Rs1 = reg(), reg()
		i.CSR = randomCSR(rng)
	case isa.FmtCSRI:
		i.Rd = reg()
		i.Imm = int64(rng.Intn(32))
		i.CSR = randomCSR(rng)
	case isa.FmtAMO:
		i.Rd, i.Rs1, i.Rs2 = reg(), reg(), reg()
		if op == isa.OpLRW || op == isa.OpLRD {
			i.Rs2 = 0
		}
		i.Aq, i.Rl = rng.Intn(2) == 1, rng.Intn(2) == 1
	case isa.FmtFence:
		if op == isa.OpFENCE {
			i.Imm = int64(rng.Intn(256))
		}
	case isa.FmtSys:
		// no fields
	}
	return isa.Encode(i)
}

// randomCSR mostly picks implemented CSRs, occasionally an arbitrary
// address (which raises illegal-instruction traps, as real fuzzers do).
func randomCSR(rng *rand.Rand) uint16 {
	if rng.Intn(8) == 0 {
		return uint16(rng.Intn(1 << 12))
	}
	return isa.KnownCSRs[rng.Intn(len(isa.KnownCSRs))]
}

// Program returns n random valid instructions.
func Program(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = Random(rng)
	}
	return out
}
