package boom

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

func runBoth(body []uint32) (rtl.Result, []trace.Entry, *iss.ISS) {
	img, _ := prog.MustBuild(prog.Program{Body: body})
	budget := prog.InstructionBudget(len(body))

	b := New()
	res := b.Run(img, budget)

	m := mem.Platform()
	m.Load(img)
	g := iss.New(m, img.Entry)
	gt := g.Run(budget)
	return res, gt, g
}

func TestBoomRunsHarness(t *testing.T) {
	res, _, _ := runBoth(nil)
	if !res.Halted || res.ExitCode != 1 {
		t.Fatalf("halted=%v exit=%d", res.Halted, res.ExitCode)
	}
	if res.Coverage.Count() == 0 {
		t.Error("no coverage recorded")
	}
}

// wildBody mixes every instruction family, including the ones that are
// findings-triggers on Rocket: BOOM has no injected bugs, so its trace
// must match the golden model on ALL of them (only cycle-CSR reads and
// self-modifying code are excluded, because mcycle legitimately
// differs and the fetch path is weakly ordered in both designs).
func wildBody(rng *rand.Rand, n int) []uint32 {
	var body []uint32
	rd := func() isa.Reg { return isa.Reg(10 + rng.Intn(8)) }
	rs := func() isa.Reg { return isa.Reg(10 + rng.Intn(12)) }
	base := []isa.Reg{isa.S0, isa.S2}
	for len(body) < n {
		switch rng.Intn(14) {
		case 0, 1, 2:
			ops := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpSLT, isa.OpSRA, isa.OpSLLW}
			body = append(body, isa.Enc(ops[rng.Intn(len(ops))], rd(), rs(), rs(), 0))
		case 3:
			ops := []isa.Op{isa.OpMUL, isa.OpMULH, isa.OpDIV, isa.OpREM, isa.OpDIVW, isa.OpREMUW}
			body = append(body, isa.Enc(ops[rng.Intn(len(ops))], rd(), rs(), rs(), 0))
		case 4:
			body = append(body, isa.Enc(isa.OpLD, rd(), base[rng.Intn(2)], 0, int64(rng.Intn(64))*8))
		case 5:
			body = append(body, isa.Enc(isa.OpSD, 0, base[rng.Intn(2)], rs(), int64(rng.Intn(64))*8))
		case 6:
			// Load with rd=x0 (Finding3 trigger on Rocket; clean here).
			body = append(body, isa.Enc(isa.OpLW, 0, base[rng.Intn(2)], 0, int64(rng.Intn(64))*8))
		case 7:
			amos := []isa.Op{isa.OpAMOADDD, isa.OpAMOORD, isa.OpAMOSWAPW, isa.OpAMOMAXW}
			rdv := isa.Reg(rng.Intn(2)) * isa.Reg(10+rng.Intn(8)) // sometimes x0
			body = append(body, isa.EncAMO(amos[rng.Intn(len(amos))], rdv, isa.S0, rs(), false, false))
		case 8:
			br := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLTU}[rng.Intn(3)]
			body = append(body, isa.Enc(br, 0, rs(), rs(), 8))
			body = append(body, isa.Enc(isa.OpADDI, rd(), rd(), 0, 1))
		case 9:
			body = append(body, isa.EncCSR(isa.OpCSRRS, rd(), 0, isa.CSRMScratch))
		case 10:
			// Misaligned access via s5 (traps, handler skips).
			body = append(body, isa.Enc(isa.OpLH, rd(), isa.S5, 0, 0))
		case 11:
			body = append(body, isa.Encode(isa.Inst{Op: isa.OpFENCEI}))
		case 12:
			body = append(body, isa.Enc(isa.OpADDI, rd(), rs(), 0, int64(rng.Intn(4096)-2048)))
		case 13:
			body = append(body, isa.Encode(isa.Inst{Op: isa.OpWFI}))
		}
	}
	return body
}

func TestBoomTraceMatchesGoldenOnWildPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		body := wildBody(rng, 40+rng.Intn(60))
		res, gt, g := runBoth(body)
		if len(res.Trace) != len(gt) {
			t.Fatalf("trial %d: trace length %d vs %d", trial, len(res.Trace), len(gt))
		}
		for i := range gt {
			if !trace.Equal(res.Trace[i], gt[i]) {
				t.Fatalf("trial %d entry %d:\nboom:   %s\ngolden: %s\ndiff: %s",
					trial, i, res.Trace[i], gt[i], trace.Diff(res.Trace[i], gt[i]))
			}
		}
		for r := 0; r < 32; r++ {
			if res.Regs[r] != g.X[r] {
				t.Fatalf("trial %d: x%d mismatch", trial, r)
			}
		}
	}
}

func TestBoomNoFinding1(t *testing.T) {
	// Unmapped+misaligned access: BOOM must agree with the golden
	// model (misaligned wins), unlike Rocket.
	body := []uint32{
		isa.Enc(isa.OpADDI, isa.TP, isa.TP, 0, 1),
		isa.Enc(isa.OpLW, isa.A0, isa.TP, 0, 0),
	}
	res, gt, _ := runBoth(body)
	for i := range gt {
		if !trace.Equal(res.Trace[i], gt[i]) {
			t.Fatalf("entry %d diverges: %s", i, trace.Diff(res.Trace[i], gt[i]))
		}
	}
	var cause uint64
	for _, e := range res.Trace {
		if e.Trap && e.Op == isa.OpLW {
			cause = e.Cause
		}
	}
	if cause != isa.ExcLoadAddrMisaligned {
		t.Errorf("boom cause = %d, want 4 (spec-conformant)", cause)
	}
}

func TestBoomNoBug2(t *testing.T) {
	body := []uint32{isa.Enc(isa.OpMUL, isa.A2, isa.A5, isa.A5, 0)}
	res, gt, _ := runBoth(body)
	var bm, gm *trace.Entry
	for i := range res.Trace {
		if res.Trace[i].Op == isa.OpMUL {
			bm = &res.Trace[i]
		}
	}
	for i := range gt {
		if gt[i].Op == isa.OpMUL {
			gm = &gt[i]
		}
	}
	if bm == nil || gm == nil {
		t.Fatal("MUL not found")
	}
	if !bm.RdValid || !gm.RdValid {
		t.Error("both traces must report the MUL rd write on BOOM")
	}
}

func TestBoomOoOConditionsReachable(t *testing.T) {
	b := New()
	// A long dependent-latency chain (loads + divisions) should
	// exercise ROB pressure, wakeup and store-queue conditions.
	var body []uint32
	for i := 0; i < 40; i++ {
		body = append(body,
			isa.Enc(isa.OpDIV, isa.A0, isa.A0, isa.A5, 0),
			isa.Enc(isa.OpADD, isa.A1, isa.A0, isa.A1, 0), // depends on div
			isa.Enc(isa.OpSD, 0, isa.S0, isa.A1, 0),
			isa.Enc(isa.OpLD, isa.A2, isa.S0, 0, 0), // forwarding candidate
		)
	}
	img, _ := prog.MustBuild(prog.Program{Body: body})
	res := b.Run(img, prog.InstructionBudget(len(body)))
	for _, name := range []string{
		"rename.src1_busy", "issue.wakeup_tag_match", "lsu.store_to_load_forward",
	} {
		id, ok := b.Space().Lookup(name)
		if !ok {
			t.Fatalf("point %s missing", name)
		}
		if !res.Coverage.Covered(id, true) {
			t.Errorf("point %s true bin should be reachable by this workload", name)
		}
	}
}

func TestBoomCoverageCeilingBelow100(t *testing.T) {
	b := New()
	id, ok := b.Space().Lookup("dead.vm.sv39_mode")
	if !ok {
		t.Fatal("dead point missing")
	}
	img, _ := prog.MustBuild(prog.Program{Body: wildBody(rand.New(rand.NewSource(5)), 100)})
	res := b.Run(img, 8000)
	if res.Coverage.Covered(id, true) || res.Coverage.Covered(id, false) {
		t.Error("dead points must stay unevaluated")
	}
}

func TestBoomDeterminism(t *testing.T) {
	body := wildBody(rand.New(rand.NewSource(7)), 80)
	img, _ := prog.MustBuild(prog.Program{Body: body})
	b := New()
	r1 := b.Run(img, 6000)
	r2 := b.Run(img, 6000)
	if r1.Cycles != r2.Cycles || r1.Coverage.Count() != r2.Coverage.Count() {
		t.Error("BOOM runs are not deterministic")
	}
}

// TestRunnerMatchesRun: the reusable runner must be bit-identical to
// the allocating Run across consecutive runs, including after wild
// bodies that leave state in caches, predictors and the ROB/store
// queue that Reset must clear.
func TestRunnerMatchesRun(t *testing.T) {
	b := New()
	runner := b.NewRunner()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		body := wildBody(rng, 40)
		img, _ := prog.MustBuild(prog.Program{Body: body})
		budget := prog.InstructionBudget(len(body))

		want := b.Run(img, budget)
		got := runner.RunScratch(img, budget, b.Space().NewSet(), nil)

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
