// Package isa implements the RISC-V RV64IMA + Zicsr + Zifencei
// instruction set: encoding, decoding, disassembly, and the pure
// datapath semantics shared by the golden-model ISS and the DUT core
// models.
//
// The package is deliberately self-contained: it is the "ISA
// disassembler" reward agent of ChatFuzz's training step 2, the decoder
// of both simulated cores, and the assembler used by the synthetic
// corpus generator.
//
//chatfuzz:deterministic package
package isa

import "fmt"

// Reg identifies one of the 32 integer registers x0..x31.
type Reg uint8

// NumRegs is the size of the integer register file.
const NumRegs = 32

// Commonly used ABI register names.
const (
	Zero Reg = 0 // hardwired zero
	RA   Reg = 1 // return address
	SP   Reg = 2 // stack pointer
	GP   Reg = 3 // global pointer
	TP   Reg = 4 // thread pointer
	T0   Reg = 5 // temporaries
	T1   Reg = 6
	T2   Reg = 7
	S0   Reg = 8 // saved / frame pointer
	S1   Reg = 9
	A0   Reg = 10 // arguments / return values
	A1   Reg = 11
	A2   Reg = 12
	A3   Reg = 13
	A4   Reg = 14
	A5   Reg = 15
	A6   Reg = 16
	A7   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	S8   Reg = 24
	S9   Reg = 25
	S10  Reg = 26
	S11  Reg = 27
	T3   Reg = 28
	T4   Reg = 29
	T5   Reg = 30
	T6   Reg = 31
)

var regNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register (e.g. "a0" for x10).
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("x%d?", uint8(r))
}

// Op enumerates every instruction of the implemented ISA. OpIllegal is
// the zero value and stands for any encoding the decoder rejects.
type Op uint16

// Instruction opcodes, grouped by extension.
const (
	OpIllegal Op = iota

	// RV32I / RV64I base.
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLD
	OpLBU
	OpLHU
	OpLWU
	OpSB
	OpSH
	OpSW
	OpSD
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpADDIW
	OpSLLIW
	OpSRLIW
	OpSRAIW
	OpADDW
	OpSUBW
	OpSLLW
	OpSRLW
	OpSRAW
	OpFENCE
	OpFENCEI
	OpECALL
	OpEBREAK

	// M extension.
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	OpMULW
	OpDIVW
	OpDIVUW
	OpREMW
	OpREMUW

	// A extension.
	OpLRW
	OpSCW
	OpAMOSWAPW
	OpAMOADDW
	OpAMOXORW
	OpAMOANDW
	OpAMOORW
	OpAMOMINW
	OpAMOMAXW
	OpAMOMINUW
	OpAMOMAXUW
	OpLRD
	OpSCD
	OpAMOSWAPD
	OpAMOADDD
	OpAMOXORD
	OpAMOANDD
	OpAMOORD
	OpAMOMIND
	OpAMOMAXD
	OpAMOMINUD
	OpAMOMAXUD

	// Zicsr.
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI

	// Privileged.
	OpMRET
	OpWFI

	numOps
)

// NumOps is the number of defined opcodes including OpIllegal.
const NumOps = int(numOps)

// Format describes the encoding layout of an instruction.
type Format uint8

// Instruction formats. FmtShift, FmtCSR, FmtCSRI, FmtAMO and FmtSys are
// specialisations of the base formats with their own field rules.
const (
	FmtR Format = iota
	FmtI
	FmtS
	FmtB
	FmtU
	FmtJ
	FmtShift  // I-format with 6-bit (or 5-bit for *W) shamt
	FmtShiftW // I-format with 5-bit shamt, W variant
	FmtCSR    // CSR with register source
	FmtCSRI   // CSR with 5-bit zimm source
	FmtAMO    // R-format with aq/rl bits
	FmtFence  // FENCE / FENCE.I
	FmtSys    // ECALL / EBREAK / MRET / WFI
)

// Class is a bitmask of behavioural categories used by the simulators,
// the mutation engine, and the mismatch classifier.
type Class uint32

// Behavioural classes.
const (
	ClassALU Class = 1 << iota
	ClassLoad
	ClassStore
	ClassBranch
	ClassJump
	ClassMul
	ClassDiv
	ClassAMO
	ClassCSR
	ClassSystem
	ClassFence
	ClassW // operates on 32-bit words, sign-extends result
)

type opMeta struct {
	name  string
	fmt   Format
	class Class
}

var opTable = [numOps]opMeta{
	OpIllegal: {"illegal", FmtSys, 0},

	OpLUI:    {"lui", FmtU, ClassALU},
	OpAUIPC:  {"auipc", FmtU, ClassALU},
	OpJAL:    {"jal", FmtJ, ClassJump},
	OpJALR:   {"jalr", FmtI, ClassJump},
	OpBEQ:    {"beq", FmtB, ClassBranch},
	OpBNE:    {"bne", FmtB, ClassBranch},
	OpBLT:    {"blt", FmtB, ClassBranch},
	OpBGE:    {"bge", FmtB, ClassBranch},
	OpBLTU:   {"bltu", FmtB, ClassBranch},
	OpBGEU:   {"bgeu", FmtB, ClassBranch},
	OpLB:     {"lb", FmtI, ClassLoad},
	OpLH:     {"lh", FmtI, ClassLoad},
	OpLW:     {"lw", FmtI, ClassLoad},
	OpLD:     {"ld", FmtI, ClassLoad},
	OpLBU:    {"lbu", FmtI, ClassLoad},
	OpLHU:    {"lhu", FmtI, ClassLoad},
	OpLWU:    {"lwu", FmtI, ClassLoad},
	OpSB:     {"sb", FmtS, ClassStore},
	OpSH:     {"sh", FmtS, ClassStore},
	OpSW:     {"sw", FmtS, ClassStore},
	OpSD:     {"sd", FmtS, ClassStore},
	OpADDI:   {"addi", FmtI, ClassALU},
	OpSLTI:   {"slti", FmtI, ClassALU},
	OpSLTIU:  {"sltiu", FmtI, ClassALU},
	OpXORI:   {"xori", FmtI, ClassALU},
	OpORI:    {"ori", FmtI, ClassALU},
	OpANDI:   {"andi", FmtI, ClassALU},
	OpSLLI:   {"slli", FmtShift, ClassALU},
	OpSRLI:   {"srli", FmtShift, ClassALU},
	OpSRAI:   {"srai", FmtShift, ClassALU},
	OpADD:    {"add", FmtR, ClassALU},
	OpSUB:    {"sub", FmtR, ClassALU},
	OpSLL:    {"sll", FmtR, ClassALU},
	OpSLT:    {"slt", FmtR, ClassALU},
	OpSLTU:   {"sltu", FmtR, ClassALU},
	OpXOR:    {"xor", FmtR, ClassALU},
	OpSRL:    {"srl", FmtR, ClassALU},
	OpSRA:    {"sra", FmtR, ClassALU},
	OpOR:     {"or", FmtR, ClassALU},
	OpAND:    {"and", FmtR, ClassALU},
	OpADDIW:  {"addiw", FmtI, ClassALU | ClassW},
	OpSLLIW:  {"slliw", FmtShiftW, ClassALU | ClassW},
	OpSRLIW:  {"srliw", FmtShiftW, ClassALU | ClassW},
	OpSRAIW:  {"sraiw", FmtShiftW, ClassALU | ClassW},
	OpADDW:   {"addw", FmtR, ClassALU | ClassW},
	OpSUBW:   {"subw", FmtR, ClassALU | ClassW},
	OpSLLW:   {"sllw", FmtR, ClassALU | ClassW},
	OpSRLW:   {"srlw", FmtR, ClassALU | ClassW},
	OpSRAW:   {"sraw", FmtR, ClassALU | ClassW},
	OpFENCE:  {"fence", FmtFence, ClassFence},
	OpFENCEI: {"fence.i", FmtFence, ClassFence},
	OpECALL:  {"ecall", FmtSys, ClassSystem},
	OpEBREAK: {"ebreak", FmtSys, ClassSystem},

	OpMUL:    {"mul", FmtR, ClassMul},
	OpMULH:   {"mulh", FmtR, ClassMul},
	OpMULHSU: {"mulhsu", FmtR, ClassMul},
	OpMULHU:  {"mulhu", FmtR, ClassMul},
	OpDIV:    {"div", FmtR, ClassDiv},
	OpDIVU:   {"divu", FmtR, ClassDiv},
	OpREM:    {"rem", FmtR, ClassDiv},
	OpREMU:   {"remu", FmtR, ClassDiv},
	OpMULW:   {"mulw", FmtR, ClassMul | ClassW},
	OpDIVW:   {"divw", FmtR, ClassDiv | ClassW},
	OpDIVUW:  {"divuw", FmtR, ClassDiv | ClassW},
	OpREMW:   {"remw", FmtR, ClassDiv | ClassW},
	OpREMUW:  {"remuw", FmtR, ClassDiv | ClassW},

	OpLRW:      {"lr.w", FmtAMO, ClassAMO | ClassLoad | ClassW},
	OpSCW:      {"sc.w", FmtAMO, ClassAMO | ClassStore | ClassW},
	OpAMOSWAPW: {"amoswap.w", FmtAMO, ClassAMO | ClassW},
	OpAMOADDW:  {"amoadd.w", FmtAMO, ClassAMO | ClassW},
	OpAMOXORW:  {"amoxor.w", FmtAMO, ClassAMO | ClassW},
	OpAMOANDW:  {"amoand.w", FmtAMO, ClassAMO | ClassW},
	OpAMOORW:   {"amoor.w", FmtAMO, ClassAMO | ClassW},
	OpAMOMINW:  {"amomin.w", FmtAMO, ClassAMO | ClassW},
	OpAMOMAXW:  {"amomax.w", FmtAMO, ClassAMO | ClassW},
	OpAMOMINUW: {"amominu.w", FmtAMO, ClassAMO | ClassW},
	OpAMOMAXUW: {"amomaxu.w", FmtAMO, ClassAMO | ClassW},
	OpLRD:      {"lr.d", FmtAMO, ClassAMO | ClassLoad},
	OpSCD:      {"sc.d", FmtAMO, ClassAMO | ClassStore},
	OpAMOSWAPD: {"amoswap.d", FmtAMO, ClassAMO},
	OpAMOADDD:  {"amoadd.d", FmtAMO, ClassAMO},
	OpAMOXORD:  {"amoxor.d", FmtAMO, ClassAMO},
	OpAMOANDD:  {"amoand.d", FmtAMO, ClassAMO},
	OpAMOORD:   {"amoor.d", FmtAMO, ClassAMO},
	OpAMOMIND:  {"amomin.d", FmtAMO, ClassAMO},
	OpAMOMAXD:  {"amomax.d", FmtAMO, ClassAMO},
	OpAMOMINUD: {"amominu.d", FmtAMO, ClassAMO},
	OpAMOMAXUD: {"amomaxu.d", FmtAMO, ClassAMO},

	OpCSRRW:  {"csrrw", FmtCSR, ClassCSR},
	OpCSRRS:  {"csrrs", FmtCSR, ClassCSR},
	OpCSRRC:  {"csrrc", FmtCSR, ClassCSR},
	OpCSRRWI: {"csrrwi", FmtCSRI, ClassCSR},
	OpCSRRSI: {"csrrsi", FmtCSRI, ClassCSR},
	OpCSRRCI: {"csrrci", FmtCSRI, ClassCSR},

	OpMRET: {"mret", FmtSys, ClassSystem},
	OpWFI:  {"wfi", FmtSys, ClassSystem},
}

// String returns the assembler mnemonic of the opcode.
func (o Op) String() string {
	if int(o) < len(opTable) {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d?", uint16(o))
}

// Format returns the encoding format of the opcode.
func (o Op) Format() Format { return opTable[o].fmt }

// Is reports whether the opcode belongs to every class in mask.
func (o Op) Is(mask Class) bool { return opTable[o].class&mask == mask }

// IsAny reports whether the opcode belongs to at least one class in mask.
func (o Op) IsAny(mask Class) bool { return opTable[o].class&mask != 0 }

// Inst is a decoded instruction. Raw preserves the original encoding.
type Inst struct {
	Raw uint32
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	// Imm is the sign-extended immediate for I/S/B/U/J formats, the
	// shift amount for FmtShift/FmtShiftW, and the 5-bit zimm for
	// FmtCSRI.
	Imm int64
	// CSR is the CSR address for Zicsr instructions.
	CSR uint16
	// Aq and Rl are the acquire/release bits of A-extension
	// instructions.
	Aq, Rl bool
}

// Valid reports whether the instruction decoded successfully.
func (i Inst) Valid() bool { return i.Op != OpIllegal }

// WritesRd reports whether the instruction architecturally writes a
// destination register (even if Rd is x0, in which case the write is
// discarded).
func (i Inst) WritesRd() bool {
	switch i.Op.Format() {
	case FmtS, FmtB, FmtFence, FmtSys:
		return false
	}
	return true
}
