package rocket

import (
	"math/rand"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// runBoth executes the same body on the Rocket model and the golden
// ISS, returning both traces and results.
func runBoth(body []uint32) (rtl.Result, []trace.Entry, *iss.ISS) {
	img, _ := prog.MustBuild(prog.Program{Body: body})
	budget := prog.InstructionBudget(len(body))

	r := New()
	res := r.Run(img, budget)

	m := mem.Platform()
	m.Load(img)
	g := iss.New(m, img.Entry)
	gt := g.Run(budget)
	return res, gt, g
}

func TestRocketRunsHarness(t *testing.T) {
	res, _, _ := runBoth(nil)
	if !res.Halted || res.ExitCode != 1 {
		t.Fatalf("halted=%v exit=%d, want true, 1", res.Halted, res.ExitCode)
	}
	if res.Coverage.Count() == 0 {
		t.Error("no coverage recorded")
	}
	if res.Cycles <= uint64(len(res.Trace)) {
		t.Errorf("cycles=%d must exceed instruction count %d", res.Cycles, len(res.Trace))
	}
}

// cleanBody generates a structured random program that avoids every
// injected-finding trigger: no MUL/DIV (Bug2), no rd=x0 memory ops
// (F2/F3), no stores to text (Bug1), no unmapped+misaligned accesses
// (F1), no cycle-CSR reads. On such programs Rocket's trace must be
// bit-identical to the golden model's.
func cleanBody(rng *rand.Rand, n int) []uint32 {
	aluOps := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpOR, isa.OpAND,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU, isa.OpADDW, isa.OpSUBW}
	immOps := []isa.Op{isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI, isa.OpSLTI, isa.OpADDIW}
	// rd pool avoids x0 and harness-critical regs (none needed mid-body).
	rd := func() isa.Reg { return isa.Reg(10 + rng.Intn(8)) }  // a0..a7
	rs := func() isa.Reg { return isa.Reg(10 + rng.Intn(12)) } // a0..s3
	base := []isa.Reg{isa.S0, isa.S2}                          // mapped, aligned data pointers outside the rd pool

	var body []uint32
	for len(body) < n {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			body = append(body, isa.Enc(aluOps[rng.Intn(len(aluOps))], rd(), rs(), rs(), 0))
		case 4, 5:
			body = append(body, isa.Enc(immOps[rng.Intn(len(immOps))], rd(), rs(), 0, int64(rng.Intn(4096)-2048)))
		case 6:
			off := int64(rng.Intn(64)) * 8
			body = append(body, isa.Enc(isa.OpLD, rd(), base[rng.Intn(len(base))], 0, off))
		case 7:
			off := int64(rng.Intn(64)) * 8
			body = append(body, isa.Enc(isa.OpSD, 0, base[rng.Intn(len(base))], rs(), off))
		case 8:
			// Forward branch over one instruction (always well-formed).
			br := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGEU}[rng.Intn(4)]
			body = append(body, isa.Enc(br, 0, rs(), rs(), 8))
			body = append(body, isa.Enc(isa.OpADDI, rd(), rd(), 0, 1))
		case 9:
			body = append(body, isa.Enc(isa.OpLUI, rd(), 0, 0, int64(int32(uint32(rng.Intn(1<<20))<<12))))
		}
	}
	return body
}

func TestRocketTraceMatchesGoldenOnCleanPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		body := cleanBody(rng, 30+rng.Intn(60))
		res, gt, g := runBoth(body)
		if len(res.Trace) != len(gt) {
			t.Fatalf("trial %d: trace length %d vs %d", trial, len(res.Trace), len(gt))
		}
		for i := range gt {
			if !trace.Equal(res.Trace[i], gt[i]) {
				t.Fatalf("trial %d entry %d:\nrocket: %s\ngolden: %s\ndiff: %s",
					trial, i, res.Trace[i], gt[i], trace.Diff(res.Trace[i], gt[i]))
			}
		}
		for r := 0; r < 32; r++ {
			if res.Regs[r] != g.X[r] {
				t.Fatalf("trial %d: x%d = %#x vs golden %#x", trial, r, res.Regs[r], g.X[r])
			}
		}
	}
}

func TestBug1SelfModifyWithoutFenceIDiverges(t *testing.T) {
	// Patch the instruction 2 ahead, first executing it once so it is
	// resident in the I-cache. Without FENCE.I, Rocket executes the
	// stale version while the golden model executes the patched one.
	patchWord := isa.Enc(isa.OpADDI, isa.A1, 0, 0, 2)
	// Body:
	//   auipc a0, 0          ; a0 = pc
	//   lw    t1, 0(s0)      ; t1 = patch word (pre-seeded via data)
	//   jal   x0, +12        ; skip victim once? — no: execute victim first:
	// Simpler: victim at pc+16; loop twice over it.
	//   0: auipc a0, 0
	//   1: lw   t1, 0(s0)
	//   2: addi a1, zero, 1    <- victim (cached on first pass)
	//   3: sw   t1, 8(a0)      <- patch victim (a0+8 = victim)
	//   4: jal  x0, -8         <- re-run victim once
	// After: if patched instruction is fetched, a1 == 2 (golden);
	// Rocket's stale I-cache keeps a1 == 1. To avoid an infinite loop
	// use a guard counter in a2.
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),
		isa.Enc(isa.OpLW, isa.T1, isa.S0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A2, 0, 0, 0),      // guard = 0
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 1),      // victim (pc+12)
		isa.Enc(isa.OpSW, 0, isa.A0, isa.T1, 12),  // patch victim
		isa.Enc(isa.OpADDI, isa.A2, isa.A2, 0, 1), // guard++
		isa.Enc(isa.OpADDI, isa.T2, 0, 0, 2),
		isa.Enc(isa.OpBLT, 0, isa.A2, isa.T2, -16), // loop back to victim twice
	}
	patch := isa.Enc(isa.OpADDI, isa.A1, 0, 0, 2)
	if patch != patchWord {
		t.Fatal("test bug")
	}

	img, _ := prog.MustBuild(prog.Program{Body: body})
	budget := prog.InstructionBudget(len(body))

	r := New()
	mm := mem.Platform()
	mm.Load(img)
	mm.WriteUint(mem.DataBase+0x2000, uint64(patch), 4) // s0 -> patch word
	// Run rocket against a memory that already contains the patch word.
	// rocket.Run builds its own memory, so seed via an extra segment.
	img2 := img
	img2.Segments = append([]mem.Segment{}, img.Segments...)
	var seg mem.Image
	seg.AddWords(mem.DataBase+0x2000, []uint32{patch})
	img2.Segments = append(img2.Segments, seg.Segments...)

	res := r.Run(img2, budget)

	g := iss.New(mm, img.Entry)
	g.Run(budget)

	if g.X[isa.A1] != 2 {
		t.Fatalf("golden a1 = %d, want 2 (executes patched instruction)", g.X[isa.A1])
	}
	if res.Regs[isa.A1] != 1 {
		t.Fatalf("rocket a1 = %d, want 1 (stale I-cache, Bug1)", res.Regs[isa.A1])
	}
}

func TestBug1FenceIRestoresCoherence(t *testing.T) {
	// Same self-modify pattern, but with FENCE.I between the store and
	// the re-execution: Rocket must now match the golden model.
	body := []uint32{
		isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),
		isa.Enc(isa.OpLW, isa.T1, isa.S0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A2, 0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 1),      // victim (pc+12)
		isa.Enc(isa.OpSW, 0, isa.A0, isa.T1, 12),  // patch victim
		isa.Encode(isa.Inst{Op: isa.OpFENCEI}),    // flush I$
		isa.Enc(isa.OpADDI, isa.A2, isa.A2, 0, 1), // guard++
		isa.Enc(isa.OpADDI, isa.T2, 0, 0, 2),
		isa.Enc(isa.OpBLT, 0, isa.A2, isa.T2, -20), // loop back to victim
	}
	patch := isa.Enc(isa.OpADDI, isa.A1, 0, 0, 2)

	img, _ := prog.MustBuild(prog.Program{Body: body})
	var seg mem.Image
	seg.AddWords(mem.DataBase+0x2000, []uint32{patch})
	img.Segments = append(img.Segments, seg.Segments...)
	budget := prog.InstructionBudget(len(body))

	r := New()
	res := r.Run(img, budget)

	mm := mem.Platform()
	mm.Load(img)
	g := iss.New(mm, img.Entry)
	g.Run(budget)

	if g.X[isa.A1] != 2 || res.Regs[isa.A1] != 2 {
		t.Fatalf("a1: golden=%d rocket=%d, want both 2 (FENCE.I flushes)",
			g.X[isa.A1], res.Regs[isa.A1])
	}
}

func TestBug2TracerOmitsMulDivWriteback(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpMUL, isa.A2, isa.A5, isa.A5, 0), // a2 = 25
		isa.Enc(isa.OpADDI, isa.A3, isa.A2, 0, 0),     // a3 = a2 (proves regfile OK)
	}
	res, gt, _ := runBoth(body)
	if res.Regs[isa.A2] != 25 || res.Regs[isa.A3] != 25 {
		t.Fatalf("architectural result wrong: a2=%d a3=%d", res.Regs[isa.A2], res.Regs[isa.A3])
	}
	// Find the MUL commit in both traces.
	var rocketMul, goldenMul *trace.Entry
	for i := range res.Trace {
		if res.Trace[i].Op == isa.OpMUL {
			rocketMul = &res.Trace[i]
		}
	}
	for i := range gt {
		if gt[i].Op == isa.OpMUL {
			goldenMul = &gt[i]
		}
	}
	if rocketMul == nil || goldenMul == nil {
		t.Fatal("MUL not found in traces")
	}
	if !goldenMul.RdValid {
		t.Error("golden trace must report the MUL rd write")
	}
	if rocketMul.RdValid {
		t.Error("Bug2: rocket trace must omit the MUL rd write")
	}
}

func TestFinding1ExceptionPriorityInversion(t *testing.T) {
	// tp+1 is unmapped AND misaligned: golden raises misaligned (4),
	// Rocket raises access fault (5).
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.TP, isa.TP, 0, 1),
		isa.Enc(isa.OpLW, isa.A0, isa.TP, 0, 0),
	}
	res, gt, _ := runBoth(body)
	var rCause, gCause uint64
	var found bool
	for _, e := range res.Trace {
		if e.Trap && e.Op == isa.OpLW {
			rCause, found = e.Cause, true
		}
	}
	if !found {
		t.Fatal("rocket: LW trap not found")
	}
	for _, e := range gt {
		if e.Trap && e.Op == isa.OpLW {
			gCause = e.Cause
		}
	}
	if gCause != isa.ExcLoadAddrMisaligned {
		t.Errorf("golden cause = %d, want 4 (misaligned)", gCause)
	}
	if rCause != isa.ExcLoadAccessFault {
		t.Errorf("rocket cause = %d, want 5 (access fault, Finding1)", rCause)
	}
}

func TestFinding2AMOWithRdX0InTrace(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.T1, 0, 0, 7),
		isa.Enc(isa.OpSD, 0, isa.A0, isa.T1, 0),
		isa.EncAMO(isa.OpAMOORD, 0, isa.A0, isa.A5, false, false), // rd = x0
	}
	res, gt, g := runBoth(body)
	if res.Regs[0] != 0 || g.X[0] != 0 {
		t.Fatal("x0 must remain zero architecturally")
	}
	var rocketAMO, goldenAMO *trace.Entry
	for i := range res.Trace {
		if res.Trace[i].Op == isa.OpAMOORD {
			rocketAMO = &res.Trace[i]
		}
	}
	for i := range gt {
		if gt[i].Op == isa.OpAMOORD {
			goldenAMO = &gt[i]
		}
	}
	if rocketAMO == nil || goldenAMO == nil {
		t.Fatal("AMO not found")
	}
	if goldenAMO.RdValid {
		t.Error("golden must not report a write to x0")
	}
	if !rocketAMO.RdValid || rocketAMO.Rd != 0 || rocketAMO.RdVal != 7 {
		t.Errorf("Finding2: rocket trace should report x0<-7, got %s", rocketAMO)
	}
}

func TestFinding3LoadToX0InTrace(t *testing.T) {
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.T1, 0, 0, 9),
		isa.Enc(isa.OpSD, 0, isa.A0, isa.T1, 0),
		isa.Enc(isa.OpLD, 0, isa.A0, 0, 0), // ld x0, 0(a0)
	}
	res, gt, _ := runBoth(body)
	var rocketLD, goldenLD *trace.Entry
	for i := range res.Trace {
		if res.Trace[i].Op == isa.OpLD && res.Trace[i].PC >= mem.TextBase+0x800 {
			rocketLD = &res.Trace[i]
		}
	}
	for i := range gt {
		if gt[i].Op == isa.OpLD && gt[i].PC >= mem.TextBase+0x800 {
			goldenLD = &gt[i]
		}
	}
	if rocketLD == nil || goldenLD == nil {
		t.Fatal("LD not found")
	}
	if goldenLD.RdValid {
		t.Error("golden must not report a write to x0")
	}
	if !rocketLD.RdValid || rocketLD.Rd != 0 || rocketLD.RdVal != 9 {
		t.Errorf("Finding3: rocket trace should report x0<-9, got %s", rocketLD)
	}
}

func TestCoverageRespondsToBehaviouralDiversity(t *testing.T) {
	r := New()
	// A NOP-sled exercises almost nothing.
	nops := make([]uint32, 40)
	for i := range nops {
		nops[i] = isa.NOP
	}
	imgN, _ := prog.MustBuild(prog.Program{Body: nops})
	covN := r.Run(imgN, 4000).Coverage.Count()

	// A behaviourally rich body: mul/div, amo, branches, traps, csr.
	rich := []uint32{
		isa.Enc(isa.OpMUL, isa.A2, isa.A6, isa.S10, 0),
		isa.Enc(isa.OpDIV, isa.A2, isa.A4, isa.A3, 0), // INT64_MIN / -1
		isa.Enc(isa.OpDIVU, isa.A2, isa.A6, 0, 0),     // div by zero
		isa.EncAMO(isa.OpLRD, isa.A1, isa.A0, 0, false, false),
		isa.EncAMO(isa.OpSCD, isa.A2, isa.A0, isa.A5, false, false),
		isa.EncAMO(isa.OpAMOADDD, isa.A1, isa.A0, isa.A5, false, false),
		isa.Enc(isa.OpLW, isa.A0, isa.S5, 0, 0), // misaligned
		isa.Encode(isa.Inst{Op: isa.OpECALL}),
		isa.Encode(isa.Inst{Op: isa.OpFENCEI}),
		isa.EncCSR(isa.OpCSRRS, isa.A1, 0, isa.CSRMScratch),
		isa.Enc(isa.OpBNE, 0, isa.A1, isa.A2, -4),
	}
	imgR, _ := prog.MustBuild(prog.Program{Body: rich})
	rRich := r.Run(imgR, 4000)
	covR := rRich.Coverage.Count()

	if covR <= covN {
		t.Errorf("rich coverage %d should exceed nop coverage %d", covR, covN)
	}
}

func TestOpSeenBinsLazyEvaluation(t *testing.T) {
	r := New()
	body := []uint32{isa.Enc(isa.OpADD, isa.A0, isa.A1, isa.A2, 0)}
	img, _ := prog.MustBuild(prog.Program{Body: body})
	res := r.Run(img, 4000)

	addID, _ := r.Space().Lookup("decode.op.add")
	mulID, _ := r.Space().Lookup("decode.op.mul")
	if !res.Coverage.Covered(addID, true) {
		t.Error("op.add true bin should be covered")
	}
	if res.Coverage.Covered(mulID, true) {
		t.Error("op.mul true bin should NOT be covered")
	}
	if !res.Coverage.Covered(mulID, false) {
		t.Error("op.mul false bin should be covered (other ops decoded)")
	}
}

func TestTieoffPointsStayHalfCovered(t *testing.T) {
	r := New()
	img, _ := prog.MustBuild(prog.Program{Body: cleanBody(rand.New(rand.NewSource(1)), 50)})
	res := r.Run(img, 4000)
	id, ok := r.Space().Lookup("tieoff.interrupt.taken")
	if !ok {
		t.Fatal("tieoff point missing")
	}
	if res.Coverage.Covered(id, true) {
		t.Error("interrupt.taken true bin must be unreachable")
	}
	if !res.Coverage.Covered(id, false) {
		t.Error("interrupt.taken false bin should be hit")
	}
	dead, ok := r.Space().Lookup("dead.pmp.cfg0_match")
	if !ok {
		t.Fatal("dead point missing")
	}
	if res.Coverage.Covered(dead, true) || res.Coverage.Covered(dead, false) {
		t.Error("dead points must never be evaluated")
	}
}

func TestRocketDeterminism(t *testing.T) {
	body := cleanBody(rand.New(rand.NewSource(3)), 80)
	img, _ := prog.MustBuild(prog.Program{Body: body})
	r := New()
	res1 := r.Run(img, 4000)
	res2 := r.Run(img, 4000)
	if res1.Cycles != res2.Cycles {
		t.Errorf("cycles differ: %d vs %d", res1.Cycles, res2.Cycles)
	}
	if res1.Coverage.Count() != res2.Coverage.Count() {
		t.Error("coverage differs between identical runs")
	}
	if len(res1.Trace) != len(res2.Trace) {
		t.Error("trace length differs")
	}
}

func TestMicroarchEventsCostCycles(t *testing.T) {
	r := New()
	// Division-heavy body must cost more cycles than a NOP body of the
	// same instruction count.
	divs := make([]uint32, 20)
	nops := make([]uint32, 20)
	for i := range divs {
		divs[i] = isa.Enc(isa.OpDIV, isa.A0, isa.A6, isa.A5, 0)
		nops[i] = isa.NOP
	}
	imgD, _ := prog.MustBuild(prog.Program{Body: divs})
	imgN, _ := prog.MustBuild(prog.Program{Body: nops})
	cd := r.Run(imgD, 4000).Cycles
	cn := r.Run(imgN, 4000).Cycles
	if cd <= cn {
		t.Errorf("div cycles %d should exceed nop cycles %d", cd, cn)
	}
}

// TestRunnerMatchesRun: the reusable runner must be bit-identical to
// the allocating Run across consecutive runs (its whole contract: a
// reset scratch is observationally a fresh core). Programs include
// wild bodies so caches, predictors and the RAS all carry state that
// Reset must clear.
func TestRunnerMatchesRun(t *testing.T) {
	r := New()
	runner := r.NewRunner()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 6; i++ {
		body := cleanBody(rng, 40)
		img, _ := prog.MustBuild(prog.Program{Body: body})
		budget := prog.InstructionBudget(len(body))

		want := r.Run(img, budget)
		got := runner.RunScratch(img, budget, r.Space().NewSet(), nil)

		if got.Cycles != want.Cycles || got.Halted != want.Halted ||
			got.ExitCode != want.ExitCode || got.Regs != want.Regs {
			t.Fatalf("run %d: runner result diverged from Run", i)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("run %d: trace length %d vs %d", i, len(got.Trace), len(want.Trace))
		}
		for j := range got.Trace {
			if got.Trace[j] != want.Trace[j] {
				t.Fatalf("run %d: trace entry %d diverged", i, j)
			}
		}
		gs, ws := got.Coverage.Snapshot(), want.Coverage.Snapshot()
		for j := range gs {
			if gs[j] != ws[j] {
				t.Fatalf("run %d: coverage word %d diverged", i, j)
			}
		}
	}
}
