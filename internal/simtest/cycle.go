package simtest

import (
	"encoding/binary"
	"fmt"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// CycleSeed is a body that pins the simulators' cycle check
// (hart.Marks): a run that must be completed by copy, or one that comes
// back to the same registers while what it reports moves on, and must
// be stepped to its budget.
type CycleSeed struct {
	Name    string
	Body    []uint32
	Repeats bool // the run is caught in a cycle and completed by copy
}

// CycleSeeds returns the bodies every simulator's cycle check is held
// to; each runs to the step budget.
func CycleSeeds() []CycleSeed {
	j := func(off int64) uint32 { return isa.Enc(isa.OpJAL, 0, 0, 0, off) }
	return []CycleSeed{
		// mtvec <- the illegal word after it: every step traps to itself.
		{"period-1 trap storm", []uint32{
			isa.Enc(isa.OpAUIPC, isa.T0, 0, 0, 0),
			isa.Enc(isa.OpADDI, isa.T0, isa.T0, 0, 12),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMTVec),
			0,
		}, true},
		// mtvec <- the auipc; the SC on a misaligned pointer traps back
		// to it, and the loop rewrites mtvec on every pass.
		{"period-3 csrrw mtvec / misaligned SC storm", []uint32{
			isa.Enc(isa.OpAUIPC, isa.T0, 0, 0, 0),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMTVec),
			isa.EncAMO(isa.OpSCW, isa.A1, isa.S5, isa.A2, false, false),
		}, true},
		// A counter in a register: never the same state twice.
		{"counting loop", []uint32{
			isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 1),
			j(-4),
		}, false},
		// The registers are the same at every pass, but the trace
		// reports a new mcycle each time.
		{"mcycle read loop", []uint32{
			isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMCycle),
			isa.Enc(isa.OpADDI, isa.A0, 0, 0, 0),
			j(-8),
		}, false},
		// A counter in mscratch: the registers are the same at every
		// pass, the CSR is not.
		{"mscratch counter loop", []uint32{
			isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMScratch),
			isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 1),
			isa.EncCSR(isa.OpCSRRW, 0, isa.A0, isa.CSRMScratch),
			isa.Enc(isa.OpADDI, isa.A0, 0, 0, 0),
			j(-16),
		}, false},
		// A counter in memory: the registers are the same at every pass,
		// the loaded value is not.
		{"memory counter loop", []uint32{
			isa.Enc(isa.OpLW, isa.T3, isa.A0, 0, 0),
			isa.Enc(isa.OpADDI, isa.T3, isa.T3, 0, 1),
			isa.Enc(isa.OpSW, 0, isa.A0, isa.T3, 0),
			isa.Enc(isa.OpADDI, isa.T3, 0, 0, 0),
			j(-16),
		}, false},
	}
}

// FuzzCycleSkip drives check with arbitrary bodies (up to 64 words)
// and budgets (0 picks prog.InstructionBudget), seeded with CycleSeeds
// at their budget and at budgets that end mid-period. check compares a
// simulator's run of img against its stepwise oracle.
func FuzzCycleSkip(f *testing.F, check func(t *testing.T, img mem.Image, budget int)) {
	for _, s := range CycleSeeds() {
		var b []byte
		for _, w := range s.Body {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		for _, budget := range []uint16{0, 131, 4099} {
			f.Add(b, budget)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte, budget uint16) {
		p := prog.Program{Body: make([]uint32, min(len(body)/4, 64))}
		for i := range p.Body {
			p.Body[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
		img, _ := prog.MustBuild(p)
		n := int(budget) % 8192
		if n == 0 {
			n = prog.InstructionBudget(len(p.Body))
		}
		check(t, img, n)
	})
}

// CycleBodies returns the bodies a simulator's cycle check is tested
// over: the golden set (38 of its 64 run to the budget), the cycle
// seeds, and 200 fuzzer-shaped bodies.
func CycleBodies() [][]uint32 {
	bodies := Programs()
	for _, s := range CycleSeeds() {
		bodies = append(bodies, s.Body)
	}
	return appendFuzzerShaped(bodies, 40, 200)
}

// cycleRig holds a DUT's Run and one long-lived runner to the DUT's
// stepwise oracle; repeats reads the runner's count of runs completed
// by copy (the owner's package-private counter).
type cycleRig struct {
	dut      rtl.ReusableDUT
	stepwise func(img mem.Image, budget int) rtl.Result
	repeats  func(rtl.Runner) int
	runner   rtl.Runner
	buf      []trace.Entry
}

// check compares both runs of img with stepping it out and reports
// whether the runner completed its run by copy.
func (g *cycleRig) check(t *testing.T, name string, img mem.Image, budget int) bool {
	t.Helper()
	want := g.stepwise(img, budget)
	if d := Diff(g.dut.Run(img, budget), want); d != "" {
		t.Fatalf("%s/%s: Run differs from stepping: %s", g.dut.Name(), name, d)
	}
	before := g.repeats(g.runner)
	got := g.runner.RunScratch(img, budget, g.dut.Space().NewSet(), g.buf)
	g.buf = got.Trace
	if d := Diff(got, want); d != "" {
		t.Fatalf("%s/%s: RunScratch differs from stepping: %s", g.dut.Name(), name, d)
	}
	return g.repeats(g.runner) > before
}

// CheckCycleSkipMatchesStepwise holds a DUT's completion by copy to
// stepwise, its Run with every step simulated, over CycleBodies, and
// requires each cycle seed to be completed by copy exactly when it says.
func CheckCycleSkipMatchesStepwise(t *testing.T, dut rtl.ReusableDUT,
	stepwise func(mem.Image, int) rtl.Result, repeats func(rtl.Runner) int) {
	t.Helper()
	g := &cycleRig{dut: dut, stepwise: stepwise, repeats: repeats, runner: dut.NewRunner()}
	for i, body := range CycleBodies() {
		img, budget := std(body)
		g.check(t, fmt.Sprintf("body %d", i), img, budget)
	}
	for _, s := range CycleSeeds() {
		img, budget := std(s.Body)
		if got := g.check(t, s.Name, img, budget); got != s.Repeats {
			t.Errorf("%s/%s: completed by copy = %v, want %v", dut.Name(), s.Name, got, s.Repeats)
		}
	}
}

// FuzzDUTCycleSkip is FuzzCycleSkip over a DUT's Run and one
// long-lived runner, each against stepwise.
func FuzzDUTCycleSkip(f *testing.F, dut rtl.ReusableDUT,
	stepwise func(mem.Image, int) rtl.Result, repeats func(rtl.Runner) int) {
	g := &cycleRig{dut: dut, stepwise: stepwise, repeats: repeats, runner: dut.NewRunner()}
	FuzzCycleSkip(f, func(t *testing.T, img mem.Image, budget int) {
		g.check(t, "input", img, budget)
	})
}
