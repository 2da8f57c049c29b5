package iss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/trace"
)

// runBody builds the standard harness around body, runs it to
// completion and returns the ISS and its trace.
func runBody(t *testing.T, body []uint32) (*ISS, []trace.Entry) {
	t.Helper()
	img, _ := prog.MustBuild(prog.Program{Body: body})
	m := mem.Platform()
	m.Load(img)
	s := New(m, img.Entry)
	entries := s.Run(prog.InstructionBudget(len(body)))
	return s, entries
}

// bodyTrace filters a full-run trace down to entries whose PC lies in
// the body region.
func bodyTrace(entries []trace.Entry, layout prog.Layout, bodyLen int) []trace.Entry {
	var out []trace.Entry
	end := layout.BodyBase + uint64(4*bodyLen)
	for _, e := range entries {
		if e.PC >= layout.BodyBase && e.PC < end {
			out = append(out, e)
		}
	}
	return out
}

func TestHarnessRunsToCompletion(t *testing.T) {
	s, entries := runBody(t, nil)
	if !s.Halted {
		t.Fatal("empty body should halt via tohost")
	}
	if s.ExitCode != 1 {
		t.Errorf("exit code = %d, want 1", s.ExitCode)
	}
	if len(entries) == 0 {
		t.Fatal("no trace entries")
	}
}

func TestHarnessRegisterInit(t *testing.T) {
	img, layout := prog.MustBuild(prog.Program{Body: []uint32{isa.NOP}})
	m := mem.Platform()
	m.Load(img)
	s := New(m, img.Entry)
	for i := 0; i < 4096 && s.PC != layout.BodyBase; i++ {
		if _, ok := s.Step(); !ok {
			t.Fatal("halted before reaching body")
		}
	}
	if s.PC != layout.BodyBase {
		t.Fatal("never reached body")
	}
	want := prog.InitialRegs(layout)
	for r := 1; r < 32; r++ {
		if s.X[r] != want[r] {
			t.Errorf("x%d = %#x, want %#x", r, s.X[r], want[r])
		}
	}
}

func TestArithmeticProgram(t *testing.T) {
	// a0=7, a1=6, a2=a0*a1, store to 0(s0), load back into a3.
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.A0, 0, 0, 7),
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 6),
		isa.Enc(isa.OpMUL, isa.A2, isa.A0, isa.A1, 0),
		isa.Enc(isa.OpSD, 0, isa.S0, isa.A2, 0),
		isa.Enc(isa.OpLD, isa.A3, isa.S0, 0, 0),
	}
	s, _ := runBody(t, body)
	if s.X[isa.A2] != 42 || s.X[isa.A3] != 42 {
		t.Errorf("a2=%d a3=%d, want 42 42", s.X[isa.A2], s.X[isa.A3])
	}
}

func TestX0AlwaysZero(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpADDI, 0, 0, 0, 123),        // addi zero, zero, 123
		isa.Enc(isa.OpLUI, 0, 0, 0, 0x7000_0000), // lui zero, ...
		isa.Enc(isa.OpADD, isa.A0, 0, 0, 0),      // a0 = zero + zero
	}
	s, entries := runBody(t, body)
	if s.X[0] != 0 {
		t.Fatalf("x0 = %#x", s.X[0])
	}
	if s.X[isa.A0] != 0 {
		t.Errorf("a0 = %#x, want 0", s.X[isa.A0])
	}
	// The golden model must not report rd writes to x0.
	for _, e := range entries {
		if e.RdValid && e.Rd == 0 {
			t.Errorf("golden trace reports write to x0: %s", e)
		}
	}
}

func TestBranchAndLoop(t *testing.T) {
	// a0=0; a1=5; loop: addi a0,a0,1 ; addi a1,a1,-1 ; bne a1,zero,-8
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.A0, 0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 5),
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 1),
		isa.Enc(isa.OpADDI, isa.A1, isa.A1, 0, -1),
		isa.Enc(isa.OpBNE, 0, isa.A1, 0, -8),
	}
	s, _ := runBody(t, body)
	if s.X[isa.A0] != 5 {
		t.Errorf("loop count a0 = %d, want 5", s.X[isa.A0])
	}
}

// expectTrapExit asserts that the run halted through the trap handler
// with the given cause.
func expectTrapExit(t *testing.T, s *ISS, wantCause uint64) {
	t.Helper()
	if !s.Halted {
		t.Fatal("run did not halt")
	}
	cause, isTrap := prog.TrapExit(s.ExitCode)
	if !isTrap {
		t.Fatalf("exit code %#x is not a trap exit", s.ExitCode)
	}
	if cause != wantCause {
		t.Errorf("trap exit cause = %d (%s), want %d (%s)",
			cause, isa.ExcName(cause), wantCause, isa.ExcName(wantCause))
	}
}

func TestLoadMisalignedTrapEndsTest(t *testing.T) {
	// s5 holds DataBase+1 (misaligned); lw a0, 0(s5) must trap with
	// cause 4 and the harness ends the test (riscv-tests semantics).
	body := []uint32{
		isa.Enc(isa.OpLW, isa.A0, isa.S5, 0, 0),
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 99), // unreachable
	}
	s, entries := runBody(t, body)
	expectTrapExit(t, s, isa.ExcLoadAddrMisaligned)
	for _, e := range entries {
		if e.Trap && e.Cause == isa.ExcLoadAddrMisaligned && e.TVal != mem.DataBase+1 {
			t.Errorf("tval = %#x, want %#x", e.TVal, mem.DataBase+1)
		}
	}
	if s.X[isa.A1] == 99 {
		t.Error("execution continued past a trapping instruction")
	}
}

func TestLoadAccessFaultTrapEndsTest(t *testing.T) {
	body := []uint32{isa.Enc(isa.OpLD, isa.A0, isa.TP, 0, 0)} // tp unmapped
	s, _ := runBody(t, body)
	expectTrapExit(t, s, isa.ExcLoadAccessFault)
}

func TestMisalignedBeatsAccessFault(t *testing.T) {
	// An address that is both unmapped AND misaligned must raise the
	// misaligned exception in the golden model (spec priority). This is
	// the behaviour Finding1 diverges from in the Rocket model.
	load := []uint32{
		isa.Enc(isa.OpADDI, isa.TP, isa.TP, 0, 1), // tp = unmapped+1
		isa.Enc(isa.OpLW, isa.A0, isa.TP, 0, 0),
	}
	s, _ := runBody(t, load)
	expectTrapExit(t, s, isa.ExcLoadAddrMisaligned)

	store := []uint32{
		isa.Enc(isa.OpADDI, isa.TP, isa.TP, 0, 1),
		isa.Enc(isa.OpSW, 0, isa.TP, isa.A0, 0),
	}
	s, _ = runBody(t, store)
	expectTrapExit(t, s, isa.ExcStoreAddrMisaligned)
}

func TestIllegalInstructionTrap(t *testing.T) {
	body := []uint32{0x00000000} // illegal (compressed space)
	s, entries := runBody(t, body)
	expectTrapExit(t, s, isa.ExcIllegalInstruction)
	found := false
	for _, e := range entries {
		if e.Trap && e.Cause == isa.ExcIllegalInstruction && e.TVal == 0 {
			found = true
		}
	}
	if !found {
		t.Error("no illegal-instruction trap entry recorded")
	}
}

func TestECallFromM(t *testing.T) {
	s, _ := runBody(t, []uint32{isa.Encode(isa.Inst{Op: isa.OpECALL})})
	expectTrapExit(t, s, isa.ExcECallFromM)
}

func TestBreakpoint(t *testing.T) {
	s, _ := runBody(t, []uint32{isa.Encode(isa.Inst{Op: isa.OpEBREAK})})
	expectTrapExit(t, s, isa.ExcBreakpoint)
}

func TestPrivilegeTransitionUModeECall(t *testing.T) {
	// Drop to U-mode via MRET, then ecall from U (cause 8) returns to M.
	// mepc <- target (pc-relative via auipc), clear MPP, mret.
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),           // a0 = pc
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 20),      // a0 = pc+20 (u_code)
		isa.EncCSR(isa.OpCSRRW, 0, isa.A0, isa.CSRMEPC), // mepc = u_code
		isa.EncCSR(isa.OpCSRRWI, 0, 0, isa.CSRMStatus),  // MPP=U, MIE=0
		isa.Encode(isa.Inst{Op: isa.OpMRET}),            // enter U-mode
		isa.Enc(isa.OpADDI, isa.A2, 0, 0, 55),           // u_code: runs in U
		isa.Encode(isa.Inst{Op: isa.OpECALL}),           // cause 8, ends test
	}
	s, entries := runBody(t, body)
	var uEntries, ecallU int
	for _, e := range entries {
		if e.Priv == isa.PrivU && !e.Trap {
			uEntries++
		}
		if e.Trap && e.Cause == isa.ExcECallFromU {
			ecallU++
		}
	}
	if uEntries == 0 {
		t.Error("no U-mode instructions executed")
	}
	if ecallU != 1 {
		t.Errorf("ecall-from-U traps = %d, want 1", ecallU)
	}
	if s.X[isa.A2] != 55 {
		t.Errorf("a2=%d, want 55", s.X[isa.A2])
	}
	expectTrapExit(t, s, isa.ExcECallFromU)
}

func TestUModeCSRAccessIsIllegal(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 20),
		isa.EncCSR(isa.OpCSRRW, 0, isa.A0, isa.CSRMEPC),
		isa.EncCSR(isa.OpCSRRWI, 0, 0, isa.CSRMStatus),
		isa.Encode(isa.Inst{Op: isa.OpMRET}),
		isa.EncCSR(isa.OpCSRRS, isa.A1, 0, isa.CSRMScratch), // U-mode read of M CSR
	}
	s, entries := runBody(t, body)
	found := false
	for _, e := range entries {
		if e.Trap && e.Cause == isa.ExcIllegalInstruction && e.Priv == isa.PrivU {
			found = true
		}
	}
	if !found {
		t.Error("U-mode CSR access did not trap as illegal")
	}
	expectTrapExit(t, s, isa.ExcIllegalInstruction)
}

func TestCSRReadWrite(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.A0, 0, 0, 0x55),
		isa.EncCSR(isa.OpCSRRW, isa.A1, isa.A0, isa.CSRMScratch), // old -> a1, 0x55 in
		isa.EncCSR(isa.OpCSRRSI, isa.A2, 0x0A, isa.CSRMScratch),  // set bits, old -> a2
		isa.EncCSR(isa.OpCSRRCI, isa.A3, 0x05, isa.CSRMScratch),  // clear bits, old -> a3
		isa.EncCSR(isa.OpCSRRS, isa.A4, 0, isa.CSRMScratch),      // pure read
	}
	s, _ := runBody(t, body)
	if s.X[isa.A2] != 0x55 {
		t.Errorf("a2 = %#x, want 0x55", s.X[isa.A2])
	}
	if s.X[isa.A3] != 0x5F {
		t.Errorf("a3 = %#x, want 0x5F", s.X[isa.A3])
	}
	if s.X[isa.A4] != 0x5A {
		t.Errorf("a4 = %#x, want 0x5A", s.X[isa.A4])
	}
}

func TestReadOnlyCSRWriteTraps(t *testing.T) {
	s, _ := runBody(t, []uint32{
		isa.EncCSR(isa.OpCSRRW, isa.A0, isa.A0, isa.CSRMHartID), // write to RO CSR
	})
	expectTrapExit(t, s, isa.ExcIllegalInstruction)

	// A pure read of the same read-only CSR is legal.
	s, _ = runBody(t, []uint32{
		isa.EncCSR(isa.OpCSRRS, isa.A1, 0, isa.CSRMHartID),
		isa.Enc(isa.OpADDI, isa.A2, 0, 0, 2),
	})
	if !s.Halted || s.ExitCode != 1 {
		t.Fatal("read-only read should not trap")
	}
	if s.X[isa.A2] != 2 {
		t.Error("program did not complete")
	}
}

func TestLRSCSuccessAndFailure(t *testing.T) {
	body := []uint32{
		isa.EncAMO(isa.OpLRD, isa.A1, isa.A0, 0, false, false),      // reserve
		isa.EncAMO(isa.OpSCD, isa.A2, isa.A0, isa.A5, false, false), // success -> 0
		isa.EncAMO(isa.OpSCD, isa.A3, isa.A0, isa.A5, false, false), // no res -> 1
		isa.Enc(isa.OpLD, isa.A4, isa.A0, 0, 0),
	}
	s, _ := runBody(t, body)
	if s.X[isa.A2] != 0 {
		t.Errorf("first sc rd = %d, want 0 (success)", s.X[isa.A2])
	}
	if s.X[isa.A3] != 1 {
		t.Errorf("second sc rd = %d, want 1 (failure)", s.X[isa.A3])
	}
	if s.X[isa.A4] != 5 {
		t.Errorf("stored value = %d, want 5", s.X[isa.A4])
	}
}

func TestStoreBreaksReservation(t *testing.T) {
	body := []uint32{
		isa.EncAMO(isa.OpLRD, isa.A1, isa.A0, 0, false, false),
		isa.Enc(isa.OpSD, 0, isa.A0, isa.A5, 0),                     // store to granule
		isa.EncAMO(isa.OpSCD, isa.A2, isa.A0, isa.A6, false, false), // must fail
	}
	s, _ := runBody(t, body)
	if s.X[isa.A2] != 1 {
		t.Errorf("sc after store rd = %d, want 1 (failure)", s.X[isa.A2])
	}
}

func TestAMOOperations(t *testing.T) {
	// mem[a0]=10 then amoadd.d a1, a5(=5), (a0): a1=10, mem=15.
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.T1, 0, 0, 10),
		isa.Enc(isa.OpSD, 0, isa.A0, isa.T1, 0),
		isa.EncAMO(isa.OpAMOADDD, isa.A1, isa.A0, isa.A5, false, false),
		isa.Enc(isa.OpLD, isa.A2, isa.A0, 0, 0),
	}
	s, _ := runBody(t, body)
	if s.X[isa.A1] != 10 {
		t.Errorf("amo old value = %d, want 10", s.X[isa.A1])
	}
	if s.X[isa.A2] != 15 {
		t.Errorf("amo result in memory = %d, want 15", s.X[isa.A2])
	}
}

func TestAMOWSignExtension(t *testing.T) {
	// Store 0xFFFFFFFF at (a0), amoadd.w rd gets sign-extended old.
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.T1, 0, 0, -1),
		isa.Enc(isa.OpSW, 0, isa.A0, isa.T1, 0),
		isa.EncAMO(isa.OpAMOADDW, isa.A1, isa.A0, isa.T0, false, false), // +1
		isa.Enc(isa.OpLWU, isa.A2, isa.A0, 0, 0),
	}
	s, _ := runBody(t, body)
	if s.X[isa.A1] != ^uint64(0) {
		t.Errorf("amo.w old = %#x, want sign-extended -1", s.X[isa.A1])
	}
	if s.X[isa.A2] != 0 {
		t.Errorf("amo.w new memory = %#x, want 0 (wrap)", s.X[isa.A2])
	}
}

func TestJALRClearsLowBitAndMisalignedTarget(t *testing.T) {
	// jalr to an address with bit0 set is fine (bit cleared); bit1 set
	// traps with instruction-address-misaligned attributed to the jump.
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),      // a0 = pc
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 13), // target pc+13 -> bit0 set, cleared -> pc+12
		isa.Enc(isa.OpJALR, isa.RA, isa.A0, 0, 0),  // lands on next inst
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 21),      // pc+12: executed
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 2),  // a0 = pc+14 (bit1 set)
		isa.Enc(isa.OpJALR, isa.RA, isa.A0, 0, 0),  // traps, cause 0
	}
	s, entries := runBody(t, body)
	if s.X[isa.A1] != 21 {
		t.Error("jalr with bit0 target did not land correctly")
	}
	found := false
	for _, e := range entries {
		if e.Trap && e.Cause == isa.ExcInstAddrMisaligned {
			found = true
		}
	}
	if !found {
		t.Error("misaligned jalr target did not trap")
	}
	expectTrapExit(t, s, isa.ExcInstAddrMisaligned)
}

func TestSelfModifyingCodeGoldenModel(t *testing.T) {
	// The golden model has no caches: a store to the next instruction
	// takes effect immediately even without FENCE.I.
	// Overwrite the upcoming "addi a1,zero,1" with "addi a1,zero,2".
	patch := isa.Enc(isa.OpADDI, isa.A1, 0, 0, 2)
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),    // a0 = pc
		isa.Enc(isa.OpLW, isa.T1, isa.S0, 0, 0),  // t1 = patch word (pre-placed)
		isa.Enc(isa.OpSW, 0, isa.A0, isa.T1, 12), // overwrite pc+12
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 1),     // will be patched to 2
	}
	img, _ := prog.MustBuild(prog.Program{Body: body})
	m := mem.Platform()
	m.Load(img)
	m.WriteUint(mem.DataBase+0x2000, uint64(patch), 4) // s0 points here
	s := New(m, img.Entry)
	s.Run(prog.InstructionBudget(len(body)))
	if s.X[isa.A1] != 2 {
		t.Errorf("a1 = %d, want 2 (patched instruction must execute)", s.X[isa.A1])
	}
}

func TestTraceDeterminism(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpMUL, isa.A2, isa.A6, isa.S10, 0),
		isa.Enc(isa.OpDIV, isa.A3, isa.A4, isa.A3, 0),
		isa.Enc(isa.OpSD, 0, isa.S0, isa.A2, 8),
		isa.Enc(isa.OpLD, isa.A5, isa.S0, 0, 8),
	}
	_, t1 := runBody(t, body)
	_, t2 := runBody(t, body)
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("entry %d differs:\n%s\n%s", i, t1[i], t2[i])
		}
	}
}

// TestRandomALUMatchesSemantics cross-checks the ISS execution of R-type
// ALU ops against isa.ALU directly (property-based).
func TestRandomALUMatchesSemantics(t *testing.T) {
	ops := []isa.Op{
		isa.OpADD, isa.OpSUB, isa.OpSLL, isa.OpSLT, isa.OpSLTU, isa.OpXOR,
		isa.OpSRL, isa.OpSRA, isa.OpOR, isa.OpAND, isa.OpADDW, isa.OpSUBW,
		isa.OpMUL, isa.OpMULH, isa.OpMULHU, isa.OpMULHSU,
		isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU,
		isa.OpDIVW, isa.OpREMW, isa.OpDIVUW, isa.OpREMUW, isa.OpMULW,
	}
	f := func(aRaw, bRaw uint64, opSel uint8) bool {
		op := ops[int(opSel)%len(ops)]
		// Set a0=aRaw, a1=bRaw via memory (too wide for immediates):
		// the harness gives s0 a data pointer.
		body := []uint32{
			isa.Enc(isa.OpLD, isa.A0, isa.S0, 0, 0),
			isa.Enc(isa.OpLD, isa.A1, isa.S0, 0, 8),
			isa.Enc(op, isa.A2, isa.A0, isa.A1, 0),
		}
		img, layout := prog.MustBuild(prog.Program{Body: body})
		m := mem.Platform()
		m.Load(img)
		m.WriteUint(mem.DataBase+0x2000, aRaw, 8)
		m.WriteUint(mem.DataBase+0x2000+8, bRaw, 8)
		s := New(m, img.Entry)
		s.Run(prog.InstructionBudget(len(body)))
		_ = layout
		return s.X[isa.A2] == isa.ALU(op, aRaw, bRaw)
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRunBudgetTerminatesWildPrograms(t *testing.T) {
	// An infinite loop must stop at the step budget.
	body := []uint32{isa.Enc(isa.OpJAL, 0, 0, 0, 0)}
	img, _ := prog.MustBuild(prog.Program{Body: body})
	m := mem.Platform()
	m.Load(img)
	s := New(m, img.Entry)
	entries := s.Run(500)
	if s.Halted {
		t.Error("wild program should not halt")
	}
	if len(entries) != 500 {
		t.Errorf("steps = %d, want 500", len(entries))
	}
}

func TestWildJumpBailsToEpilogue(t *testing.T) {
	// Jump through a3 (=-1, unmapped): fetch access fault; the handler
	// sends execution to the epilogue, so the run halts cleanly.
	body := []uint32{
		isa.Enc(isa.OpJALR, 0, isa.A3, 0, 0),
	}
	s, _ := runBody(t, body)
	if !s.Halted {
		t.Error("wild jump should bail to epilogue and halt")
	}
}

func TestMcycleMinstretProgress(t *testing.T) {
	body := []uint32{
		isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMInstret),
		isa.NOP, isa.NOP, isa.NOP,
		isa.EncCSR(isa.OpCSRRS, isa.A1, 0, isa.CSRMInstret),
	}
	s, _ := runBody(t, body)
	if got := s.X[isa.A1] - s.X[isa.A0]; got != 4 {
		t.Errorf("minstret delta = %d, want 4", got)
	}
}
