package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{0: "zero", 1: "ra", 2: "sp", 10: "a0", 31: "t6"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpMetadataComplete(t *testing.T) {
	for op := Op(1); op < numOps; op++ {
		if opTable[op].name == "" {
			t.Errorf("op %d has no table entry", op)
		}
		if encTable[op].opcode == 0 {
			t.Errorf("op %v has no encoder entry", op)
		}
	}
}

func TestDecodeKnownWords(t *testing.T) {
	// Hand-assembled words cross-checked against the RISC-V spec tables.
	cases := []struct {
		raw  uint32
		want string
	}{
		{0x00000013, "addi zero, zero, 0"},     // canonical NOP
		{0x00A28293, "addi t0, t0, 10"},        // addi x5, x5, 10
		{0x00B50633, "add a2, a0, a1"},         // add x12, x10, x11
		{0x40B50633, "sub a2, a0, a1"},         // sub
		{0x02B50633, "mul a2, a0, a1"},         // mul
		{0x0000006F, "jal zero, 0"},            // jal .
		{0xFE0008E3, "beq zero, zero, -16"},    // beq backwards
		{0x00052503, "lw a0, 0(a0)"},           // lw x10, 0(x10)
		{0x00A53023, "sd a0, 0(a0)"},           // sd x10, 0(x10)
		{0x000280E7, "jalr ra, 0(t0)"},         // jalr x1, 0(x5)
		{0x12345037, "lui zero, 0x12345"},      // lui
		{0x00000073, "ecall"},                  //
		{0x00100073, "ebreak"},                 //
		{0x30200073, "mret"},                   //
		{0x10500073, "wfi"},                    //
		{0x0000100F, "fence.i"},                //
		{0x30529073, "csrrw zero, mtvec, t0"},  // csrrw x0, mtvec, x5
		{0x342025F3, "csrrs a1, mcause, zero"}, // csrr a1, mcause
		{0x4105B52F, "amoor.d a0, a6, (a1)"},   // amoor.d x10, x16, (x11)
		{0x1005252F, "lr.w a0, (a0)"},          //
		{0x0020D093, "srli ra, ra, 2"},         //
		{0x4020D093, "srai ra, ra, 2"},         //
		{0x02B55533, "divu a0, a0, a1"},        //
	}
	for _, c := range cases {
		got := Disassemble(c.raw)
		if got != c.want {
			t.Errorf("Disassemble(%#08x) = %q, want %q", c.raw, got, c.want)
		}
	}
}

func TestDecodeRejectsCompressedSpace(t *testing.T) {
	for _, raw := range []uint32{0x00000000, 0x00000001, 0x00000002, 0xFFFF4142} {
		if Decode(raw).Valid() {
			t.Errorf("Decode(%#08x) should be illegal", raw)
		}
	}
}

func TestDecodeRejectsReservedEncodings(t *testing.T) {
	cases := []uint32{
		0x00002063, // branch funct3=2 (reserved)
		0x00007003, // load funct3=7 (reserved)
		0x0000400F, // misc-mem funct3=4
		0x00004073, // system funct3=4
		0x0000002F, // AMO funct3=0
		0x30200173, // mret with rd!=0
		0xC0000033, // OP with funct7=0x60
	}
	for _, raw := range cases {
		if inst := Decode(raw); inst.Valid() {
			t.Errorf("Decode(%#08x) = %v, want illegal", raw, inst.Op)
		}
	}
}

// randInst builds a random valid instruction for roundtrip testing.
func randInst(rng *rand.Rand) Inst {
	for {
		op := Op(1 + rng.Intn(NumOps-1))
		i := Inst{Op: op}
		switch op.Format() {
		case FmtR:
			i.Rd, i.Rs1, i.Rs2 = Reg(rng.Intn(32)), Reg(rng.Intn(32)), Reg(rng.Intn(32))
		case FmtI:
			i.Rd, i.Rs1 = Reg(rng.Intn(32)), Reg(rng.Intn(32))
			i.Imm = int64(rng.Intn(1<<12)) - (1 << 11)
		case FmtShift:
			i.Rd, i.Rs1 = Reg(rng.Intn(32)), Reg(rng.Intn(32))
			i.Imm = int64(rng.Intn(64))
		case FmtShiftW:
			i.Rd, i.Rs1 = Reg(rng.Intn(32)), Reg(rng.Intn(32))
			i.Imm = int64(rng.Intn(32))
		case FmtS, FmtB:
			i.Rs1, i.Rs2 = Reg(rng.Intn(32)), Reg(rng.Intn(32))
			if op.Format() == FmtB {
				i.Imm = int64(rng.Intn(1<<12)-1<<11) * 2
			} else {
				i.Imm = int64(rng.Intn(1<<12)) - (1 << 11)
			}
		case FmtU:
			i.Rd = Reg(rng.Intn(32))
			i.Imm = int64(int32(uint32(rng.Intn(1<<20)) << 12))
		case FmtJ:
			i.Rd = Reg(rng.Intn(32))
			i.Imm = int64(rng.Intn(1<<20)-1<<19) * 2
		case FmtCSR:
			i.Rd, i.Rs1 = Reg(rng.Intn(32)), Reg(rng.Intn(32))
			i.CSR = KnownCSRs[rng.Intn(len(KnownCSRs))]
		case FmtCSRI:
			i.Rd = Reg(rng.Intn(32))
			i.Imm = int64(rng.Intn(32))
			i.CSR = KnownCSRs[rng.Intn(len(KnownCSRs))]
		case FmtAMO:
			i.Rd, i.Rs1, i.Rs2 = Reg(rng.Intn(32)), Reg(rng.Intn(32)), Reg(rng.Intn(32))
			if op == OpLRW || op == OpLRD {
				i.Rs2 = 0
			}
			i.Aq, i.Rl = rng.Intn(2) == 1, rng.Intn(2) == 1
		case FmtFence:
			if op == OpFENCE {
				i.Imm = 0xFF // pred|succ = iorw,iorw
			}
		case FmtSys:
			// no fields
		}
		return i
	}
}

// TestEncodeDecodeRoundtrip is the core property: decode(encode(i))
// reproduces every architectural field for any valid instruction.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 20000; n++ {
		want := randInst(rng)
		raw := Encode(want)
		got := Decode(raw)
		if got.Op != want.Op || got.Rd != want.Rd || got.Rs1 != want.Rs1 ||
			got.Rs2 != want.Rs2 || got.Imm != want.Imm || got.CSR != want.CSR ||
			got.Aq != want.Aq || got.Rl != want.Rl {
			t.Fatalf("roundtrip failed:\nwant %+v\nraw  %#08x\ngot  %+v", want, raw, got)
		}
	}
}

// TestDecodeEncodeRoundtrip is the dual property: any word that decodes
// as valid re-encodes to the identical word.
// TestEncodeRejectsUnencodableOps: OpIllegal and anything past the op
// table have no encoder entry and must panic, not encode as zero.
func TestEncodeRejectsUnencodableOps(t *testing.T) {
	for _, op := range []Op{OpIllegal, Op(NumOps), Op(NumOps + 100)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Encode(op %d) did not panic", op)
				}
			}()
			Encode(Inst{Op: op})
		}()
	}
}

func TestDecodeEncodeRoundtrip(t *testing.T) {
	f := func(raw uint32) bool {
		inst := Decode(raw)
		if !inst.Valid() {
			return true
		}
		if inst.Op == OpFENCE {
			// FENCE keeps only pred/succ/fm in Imm; rd/rs1 are
			// ignored-but-legal fields the re-encoder zeroes.
			return true
		}
		return Encode(inst) == raw
	}
	cfg := &quick.Config{MaxCount: 50000, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestDisassembleNeverPanics fuzzes the disassembler with arbitrary
// words; it must render something for every input.
func TestDisassembleNeverPanics(t *testing.T) {
	f := func(raw uint32) bool { return Disassemble(raw) != "" }
	cfg := &quick.Config{MaxCount: 50000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCountInvalid(t *testing.T) {
	words := []uint32{NOP, 0x00000000, Enc(OpADD, 1, 2, 3, 0), 0xFFFFFFFF}
	if got := CountInvalid(words); got != 2 {
		t.Errorf("CountInvalid = %d, want 2", got)
	}
}

func TestWritesRd(t *testing.T) {
	cases := []struct {
		op   Op
		want bool
	}{
		{OpADD, true}, {OpLW, true}, {OpJAL, true}, {OpJALR, true},
		{OpCSRRW, true}, {OpAMOADDD, true}, {OpLUI, true},
		{OpSW, false}, {OpBEQ, false}, {OpFENCE, false}, {OpECALL, false},
		{OpMRET, false},
	}
	for _, c := range cases {
		if got := (Inst{Op: c.op}).WritesRd(); got != c.want {
			t.Errorf("WritesRd(%v) = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestALUBasics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpADD, 2, 3, 5},
		{OpSUB, 2, 3, ^uint64(0)},
		{OpSLL, 1, 63, 1 << 63},
		{OpSLT, ^uint64(0), 0, 1},  // -1 < 0 signed
		{OpSLTU, ^uint64(0), 0, 0}, // max > 0 unsigned
		{OpXOR, 0xF0, 0x0F, 0xFF},
		{OpSRL, 1 << 63, 63, 1},
		{OpSRA, 1 << 63, 63, ^uint64(0)},
		{OpOR, 0xF0, 0x0F, 0xFF},
		{OpAND, 0xF0, 0x0F, 0},
		{OpADDW, 0x7FFFFFFF, 1, 0xFFFFFFFF80000000},
		{OpSUBW, 0, 1, ^uint64(0)},
		{OpSLLW, 1, 31, 0xFFFFFFFF80000000},
		{OpSRLW, 0x80000000, 31, 1},
		{OpSRAW, 0x80000000, 31, ^uint64(0)},
	}
	for _, c := range cases {
		if got := ALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("ALU(%v, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestMulSemantics(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{OpMUL, 7, 6, 42},
		{OpMULH, ^uint64(0), ^uint64(0), 0},               // -1 * -1 = 1, high = 0
		{OpMULH, 1 << 63, 2, ^uint64(0)},                  // min * 2 high = -1
		{OpMULHU, ^uint64(0), ^uint64(0), ^uint64(0) - 1}, // (2^64-1)^2 >> 64
		{OpMULHSU, ^uint64(0), ^uint64(0), ^uint64(0)},    // -1 * max unsigned, high = -1
		{OpMULW, 0x100000000 | 3, 5, 15},                  // truncates to 32 bits first
	}
	for _, c := range cases {
		if got := ALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("ALU(%v, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestDivSemanticsSpecCorners(t *testing.T) {
	minI64 := uint64(1) << 63
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		// Division by zero per spec.
		{OpDIV, 42, 0, ^uint64(0)},
		{OpDIVU, 42, 0, ^uint64(0)},
		{OpREM, 42, 0, 42},
		{OpREMU, 42, 0, 42},
		// Signed overflow per spec.
		{OpDIV, minI64, ^uint64(0), minI64},
		{OpREM, minI64, ^uint64(0), 0},
		// Normal cases.
		{OpDIV, ^uint64(0) - 6, 2, uint64(^uint64(0) - 2)}, // -7/2 = -3
		{OpREM, ^uint64(0) - 6, 2, ^uint64(0)},             // -7%2 = -1
		// 32-bit corners.
		{OpDIVW, 0x80000000, ^uint64(0), 0xFFFFFFFF80000000},
		{OpREMW, 0x80000000, ^uint64(0), 0},
		{OpDIVW, 7, 0, ^uint64(0)},
		{OpDIVUW, 7, 0, ^uint64(0)},
		{OpREMW, 7, 0, 7},
		{OpREMUW, 0xFFFFFFFF, 0, 0xFFFFFFFFFFFFFFFF}, // sext32(0xFFFFFFFF)
	}
	for _, c := range cases {
		if got := ALU(c.op, c.a, c.b); got != c.want {
			t.Errorf("ALU(%v, %#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want bool
	}{
		{OpBEQ, 5, 5, true}, {OpBEQ, 5, 6, false},
		{OpBNE, 5, 6, true}, {OpBNE, 5, 5, false},
		{OpBLT, ^uint64(0), 0, true}, {OpBLT, 0, ^uint64(0), false},
		{OpBGE, 0, ^uint64(0), true}, {OpBGE, ^uint64(0), 0, false},
		{OpBLTU, 0, ^uint64(0), true}, {OpBLTU, ^uint64(0), 0, false},
		{OpBGEU, ^uint64(0), 0, true}, {OpBGEU, 0, ^uint64(0), false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v, %#x, %#x) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestAMOApply(t *testing.T) {
	cases := []struct {
		op       Op
		old, src uint64
		want     uint64
	}{
		{OpAMOSWAPD, 1, 2, 2},
		{OpAMOADDD, 1, 2, 3},
		{OpAMOXORD, 0xFF, 0x0F, 0xF0},
		{OpAMOANDD, 0xFF, 0x0F, 0x0F},
		{OpAMOORD, 0xF0, 0x0F, 0xFF},
		{OpAMOMIND, ^uint64(0), 1, ^uint64(0)}, // -1 < 1 signed
		{OpAMOMAXD, ^uint64(0), 1, 1},
		{OpAMOMINUD, ^uint64(0), 1, 1},
		{OpAMOMAXUD, ^uint64(0), 1, ^uint64(0)},
		{OpAMOADDW, 0xFFFFFFFF, 1, 0},           // 32-bit wraparound
		{OpAMOMINW, 0x80000000, 0, 0x80000000},  // INT32_MIN < 0
		{OpAMOMAXUW, 0x80000000, 0, 0x80000000}, // unsigned max
	}
	for _, c := range cases {
		if got := AMOApply(c.op, c.old, c.src); got != c.want {
			t.Errorf("AMOApply(%v, %#x, %#x) = %#x, want %#x", c.op, c.old, c.src, got, c.want)
		}
	}
}

func TestMemWidth(t *testing.T) {
	cases := []struct {
		op     Op
		bytes  int
		signed bool
	}{
		{OpLB, 1, true}, {OpLBU, 1, false}, {OpLH, 2, true}, {OpLHU, 2, false},
		{OpLW, 4, true}, {OpLWU, 4, false}, {OpLD, 8, true},
		{OpSB, 1, false}, {OpSH, 2, false}, {OpSW, 4, false}, {OpSD, 8, true},
		{OpAMOADDW, 4, true}, {OpAMOADDD, 8, true}, {OpLRW, 4, true}, {OpSCD, 8, true},
	}
	for _, c := range cases {
		b, s := MemWidth(c.op)
		if b != c.bytes || s != c.signed {
			t.Errorf("MemWidth(%v) = (%d, %v), want (%d, %v)", c.op, b, s, c.bytes, c.signed)
		}
	}
}

func TestExcNames(t *testing.T) {
	for cause := uint64(0); cause < 12; cause++ {
		if ExcName(cause) == "" {
			t.Errorf("ExcName(%d) empty", cause)
		}
	}
	if ExcName(ExcLoadAddrMisaligned) != "load address misaligned" {
		t.Error("wrong name for load misaligned")
	}
}

func TestClassQueries(t *testing.T) {
	if !OpMUL.Is(ClassMul) || OpMUL.Is(ClassDiv) {
		t.Error("OpMUL class wrong")
	}
	if !OpAMOADDW.Is(ClassAMO | ClassW) {
		t.Error("OpAMOADDW should be AMO|W")
	}
	if !OpLRD.IsAny(ClassLoad) || OpLRD.Is(ClassW) {
		t.Error("OpLRD class wrong")
	}
	if !OpDIVW.Is(ClassDiv|ClassW) || OpDIVW.IsAny(ClassMul) {
		t.Error("OpDIVW class wrong")
	}
}
