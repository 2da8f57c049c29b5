package isa

import "fmt"

// base opcode / funct fields per Op, used by Encode. Each entry packs
// opcode (bits 6:0), funct3 (bits 14:12 position), and funct7 or other
// high bits as needed by the format.
type encMeta struct {
	opcode uint32
	f3     uint32
	f7     uint32 // funct7 for R, funct5<<2 for AMO, imm12 for Sys
}

var encTable = [NumOps]encMeta{
	OpLUI:    {0x37, 0, 0},
	OpAUIPC:  {0x17, 0, 0},
	OpJAL:    {0x6F, 0, 0},
	OpJALR:   {0x67, 0, 0},
	OpBEQ:    {0x63, 0, 0},
	OpBNE:    {0x63, 1, 0},
	OpBLT:    {0x63, 4, 0},
	OpBGE:    {0x63, 5, 0},
	OpBLTU:   {0x63, 6, 0},
	OpBGEU:   {0x63, 7, 0},
	OpLB:     {0x03, 0, 0},
	OpLH:     {0x03, 1, 0},
	OpLW:     {0x03, 2, 0},
	OpLD:     {0x03, 3, 0},
	OpLBU:    {0x03, 4, 0},
	OpLHU:    {0x03, 5, 0},
	OpLWU:    {0x03, 6, 0},
	OpSB:     {0x23, 0, 0},
	OpSH:     {0x23, 1, 0},
	OpSW:     {0x23, 2, 0},
	OpSD:     {0x23, 3, 0},
	OpADDI:   {0x13, 0, 0},
	OpSLTI:   {0x13, 2, 0},
	OpSLTIU:  {0x13, 3, 0},
	OpXORI:   {0x13, 4, 0},
	OpORI:    {0x13, 6, 0},
	OpANDI:   {0x13, 7, 0},
	OpSLLI:   {0x13, 1, 0x00},
	OpSRLI:   {0x13, 5, 0x00},
	OpSRAI:   {0x13, 5, 0x20},
	OpADD:    {0x33, 0, 0x00},
	OpSUB:    {0x33, 0, 0x20},
	OpSLL:    {0x33, 1, 0x00},
	OpSLT:    {0x33, 2, 0x00},
	OpSLTU:   {0x33, 3, 0x00},
	OpXOR:    {0x33, 4, 0x00},
	OpSRL:    {0x33, 5, 0x00},
	OpSRA:    {0x33, 5, 0x20},
	OpOR:     {0x33, 6, 0x00},
	OpAND:    {0x33, 7, 0x00},
	OpADDIW:  {0x1B, 0, 0},
	OpSLLIW:  {0x1B, 1, 0x00},
	OpSRLIW:  {0x1B, 5, 0x00},
	OpSRAIW:  {0x1B, 5, 0x20},
	OpADDW:   {0x3B, 0, 0x00},
	OpSUBW:   {0x3B, 0, 0x20},
	OpSLLW:   {0x3B, 1, 0x00},
	OpSRLW:   {0x3B, 5, 0x00},
	OpSRAW:   {0x3B, 5, 0x20},
	OpFENCE:  {0x0F, 0, 0},
	OpFENCEI: {0x0F, 1, 0},
	OpECALL:  {0x73, 0, 0x000},
	OpEBREAK: {0x73, 0, 0x001},
	OpMRET:   {0x73, 0, 0x302},
	OpWFI:    {0x73, 0, 0x105},

	OpMUL:    {0x33, 0, 0x01},
	OpMULH:   {0x33, 1, 0x01},
	OpMULHSU: {0x33, 2, 0x01},
	OpMULHU:  {0x33, 3, 0x01},
	OpDIV:    {0x33, 4, 0x01},
	OpDIVU:   {0x33, 5, 0x01},
	OpREM:    {0x33, 6, 0x01},
	OpREMU:   {0x33, 7, 0x01},
	OpMULW:   {0x3B, 0, 0x01},
	OpDIVW:   {0x3B, 4, 0x01},
	OpDIVUW:  {0x3B, 5, 0x01},
	OpREMW:   {0x3B, 6, 0x01},
	OpREMUW:  {0x3B, 7, 0x01},

	OpLRW:      {0x2F, 2, 0x02},
	OpSCW:      {0x2F, 2, 0x03},
	OpAMOSWAPW: {0x2F, 2, 0x01},
	OpAMOADDW:  {0x2F, 2, 0x00},
	OpAMOXORW:  {0x2F, 2, 0x04},
	OpAMOANDW:  {0x2F, 2, 0x0C},
	OpAMOORW:   {0x2F, 2, 0x08},
	OpAMOMINW:  {0x2F, 2, 0x10},
	OpAMOMAXW:  {0x2F, 2, 0x14},
	OpAMOMINUW: {0x2F, 2, 0x18},
	OpAMOMAXUW: {0x2F, 2, 0x1C},
	OpLRD:      {0x2F, 3, 0x02},
	OpSCD:      {0x2F, 3, 0x03},
	OpAMOSWAPD: {0x2F, 3, 0x01},
	OpAMOADDD:  {0x2F, 3, 0x00},
	OpAMOXORD:  {0x2F, 3, 0x04},
	OpAMOANDD:  {0x2F, 3, 0x0C},
	OpAMOORD:   {0x2F, 3, 0x08},
	OpAMOMIND:  {0x2F, 3, 0x10},
	OpAMOMAXD:  {0x2F, 3, 0x14},
	OpAMOMINUD: {0x2F, 3, 0x18},
	OpAMOMAXUD: {0x2F, 3, 0x1C},

	OpCSRRW:  {0x73, 1, 0},
	OpCSRRS:  {0x73, 2, 0},
	OpCSRRC:  {0x73, 3, 0},
	OpCSRRWI: {0x73, 5, 0},
	OpCSRRSI: {0x73, 6, 0},
	OpCSRRCI: {0x73, 7, 0},
}

// Encode assembles an instruction into its 32-bit encoding. It is the
// inverse of Decode for every valid instruction. Encode panics on
// OpIllegal or out-of-range fields; it is a programming-error API used
// by the corpus generator and tests, not a fuzz-input path.
func Encode(i Inst) uint32 {
	var em encMeta
	if int(i.Op) < NumOps {
		em = encTable[i.Op]
	}
	if em.opcode == 0 { // every real major opcode has its low two bits set
		panic(fmt.Sprintf("isa: cannot encode op %v", i.Op))
	}
	rd := uint32(i.Rd) & 31
	rs1 := uint32(i.Rs1) & 31
	rs2 := uint32(i.Rs2) & 31
	base := em.opcode | em.f3<<12

	switch i.Op.Format() {
	case FmtR:
		return base | rd<<7 | rs1<<15 | rs2<<20 | em.f7<<25
	case FmtI:
		return base | rd<<7 | rs1<<15 | uint32(i.Imm&0xFFF)<<20
	case FmtShift:
		return base | rd<<7 | rs1<<15 | uint32(i.Imm&0x3F)<<20 | em.f7<<25
	case FmtShiftW:
		return base | rd<<7 | rs1<<15 | uint32(i.Imm&0x1F)<<20 | em.f7<<25
	case FmtS:
		imm := uint32(i.Imm) & 0xFFF
		return base | (imm&0x1F)<<7 | rs1<<15 | rs2<<20 | (imm>>5)<<25
	case FmtB:
		imm := uint32(i.Imm) & 0x1FFF
		return base | (imm>>11&1)<<7 | (imm>>1&0xF)<<8 | rs1<<15 | rs2<<20 |
			(imm>>5&0x3F)<<25 | (imm>>12&1)<<31
	case FmtU:
		return base | rd<<7 | uint32(i.Imm)&0xFFFFF000
	case FmtJ:
		imm := uint32(i.Imm) & 0x1FFFFF
		return base | rd<<7 | (imm>>12&0xFF)<<12 | (imm>>11&1)<<20 |
			(imm>>1&0x3FF)<<21 | (imm>>20&1)<<31
	case FmtCSR:
		return base | rd<<7 | rs1<<15 | uint32(i.CSR)<<20
	case FmtCSRI:
		return base | rd<<7 | uint32(i.Imm&0x1F)<<15 | uint32(i.CSR)<<20
	case FmtAMO:
		var aq, rl uint32
		if i.Aq {
			aq = 1
		}
		if i.Rl {
			rl = 1
		}
		return base | rd<<7 | rs1<<15 | rs2<<20 | rl<<25 | aq<<26 | em.f7<<27
	case FmtFence:
		if i.Op == OpFENCE {
			return base | uint32(i.Imm&0xFFF)<<20
		}
		return base
	case FmtSys:
		return base | em.f7<<20
	}
	panic(fmt.Sprintf("isa: unhandled format for op %v", i.Op))
}

// Enc is shorthand for Encode with positional fields; it covers every
// non-CSR, non-AMO opcode.
func Enc(op Op, rd, rs1, rs2 Reg, imm int64) uint32 {
	return Encode(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// EncCSR encodes a Zicsr instruction. For the immediate forms rs1
// carries the 5-bit zimm.
func EncCSR(op Op, rd Reg, rs1 Reg, csr uint16) uint32 {
	i := Inst{Op: op, Rd: rd, CSR: csr}
	switch op {
	case OpCSRRWI, OpCSRRSI, OpCSRRCI:
		i.Imm = int64(rs1)
	default:
		i.Rs1 = rs1
	}
	return Encode(i)
}

// EncAMO encodes an A-extension instruction with aq/rl bits.
func EncAMO(op Op, rd, rs1, rs2 Reg, aq, rl bool) uint32 {
	return Encode(Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Aq: aq, Rl: rl})
}

// NOP is the canonical no-operation encoding (addi x0, x0, 0).
const NOP uint32 = 0x00000013
