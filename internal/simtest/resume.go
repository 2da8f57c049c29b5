package simtest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// Diff compares everything two DUT runs report, field by field, and
// describes the first difference ("" when there is none).
func Diff(got, want rtl.Result) string {
	for i := 0; i < min(len(got.Trace), len(want.Trace)); i++ {
		if got.Trace[i] != want.Trace[i] {
			return fmt.Sprintf("trace entry %d: %v, want %v", i, got.Trace[i], want.Trace[i])
		}
	}
	switch {
	case len(got.Trace) != len(want.Trace):
		return fmt.Sprintf("trace length %d, want %d", len(got.Trace), len(want.Trace))
	case got.Cycles != want.Cycles:
		return fmt.Sprintf("cycles %d, want %d", got.Cycles, want.Cycles)
	case got.Halted != want.Halted || got.ExitCode != want.ExitCode:
		return fmt.Sprintf("halted %v exit %#x, want %v %#x", got.Halted, got.ExitCode, want.Halted, want.ExitCode)
	case got.Regs != want.Regs:
		return fmt.Sprintf("registers %x, want %x", got.Regs, want.Regs)
	}
	if g, w := got.Coverage.Snapshot(), want.Coverage.Snapshot(); !slices.Equal(g, w) {
		return fmt.Sprintf("coverage words %x, want %x", g, w)
	}
	return ""
}

// resumeRig is one runner under differential test against dut.Run,
// with the package-private resume counter its owner exposes.
type resumeRig struct {
	t       *testing.T
	dut     rtl.DUT
	runner  rtl.Runner
	resumes func(rtl.Runner) int
	set     *cov.Set
	buf     []trace.Entry
}

func newResumeRig(t *testing.T, dut rtl.DUT, resumes func(rtl.Runner) int) *resumeRig {
	return &resumeRig{t: t, dut: dut, runner: dut.NewRunner(), resumes: resumes, set: dut.Space().NewSet()}
}

// run simulates img on the rig's runner over a set that already holds
// pre (nil: empty), requires the result to equal a fresh dut.Run's with
// pre's bits on top, and requires the run to have resumed from the
// runner's checkpoint or not.
func (g *resumeRig) run(name string, img mem.Image, budget int, pre []uint64, wantResume bool) {
	g.t.Helper()
	want := g.dut.Run(img, budget)
	g.set.Reset()
	if pre != nil {
		for _, s := range []*cov.Set{g.set, want.Coverage} {
			if _, err := s.MergeWords(pre); err != nil {
				g.t.Fatal(err)
			}
		}
	}
	before := g.resumes(g.runner)
	got := g.runner.RunScratch(img, budget, g.set, g.buf)
	g.buf = got.Trace
	if d := Diff(got, want); d != "" {
		g.t.Fatalf("%s/%s: RunScratch differs from Run: %s", g.dut.Name(), name, d)
	}
	if resumed := g.resumes(g.runner) > before; resumed != wantResume {
		g.t.Fatalf("%s/%s: resumed from the checkpoint = %v, want %v", g.dut.Name(), name, resumed, wantResume)
	}
}

// appendFuzzerShaped appends at least n bodies the way the fuzzers
// shape them, from seed: a randinst body, then a batch of three from a
// TheHuzz generator whose pool some of them join, and again.
func appendFuzzerShaped(bodies [][]uint32, seed int64, n int) [][]uint32 {
	rng := rand.New(rand.NewSource(seed))
	huzz := thehuzz.New(seed, 16)
	for n += len(bodies); len(bodies) < n; {
		bodies = append(bodies, randinst.Program(rng, 1+rng.Intn(32)))
		batch := huzz.GenerateBatch(3)
		scores := make([]cov.Scores, len(batch))
		for i, p := range batch {
			bodies = append(bodies, p.Body)
			scores[i].Incremental = rng.Intn(3) // some join the pool and get mutated
		}
		huzz.Feedback(scores)
	}
	return bodies
}

// std builds a standard-harness image and its budget.
func std(body []uint32) (mem.Image, int) {
	img, _ := prog.MustBuild(prog.Program{Body: body})
	return img, prog.InstructionBudget(len(body))
}

// foreign builds an image whose prologue at TextBase is init followed
// by a jump to the body at TextBase+0x800: two NOPs and the tohost
// store of the standard epilogue.
func foreign(init ...uint32) mem.Image {
	init = append(init, isa.Enc(isa.OpJAL, 0, 0, 0, int64(0x800-4*len(init))))
	bodyImg, _ := prog.MustBuild(prog.Program{Body: []uint32{isa.NOP, isa.NOP}})
	img := mem.Image{Entry: mem.TextBase, Body: bodyImg.Body, Segments: []mem.Segment{bodyImg.Segments[2]}}
	img.AddWords(mem.TextBase, init)
	return img
}

// patched returns img with an extra segment of data at base, loaded
// over the harness.
func patched(img mem.Image, base uint64, data ...byte) mem.Image {
	img.Segments = append(slices.Clone(img.Segments), mem.Segment{Base: base, Data: data})
	return img
}

// CheckResumeMatchesReset holds a DUT's runner to the from-reset
// oracle across its post-prologue checkpoint: every RunScratch must
// equal a fresh dut.Run in every reported field, whether it resumed
// from the checkpoint or not, and must resume exactly when the runner's
// doc comment says it may. resumes reads the runner's count of resumed
// runs (the owner's package-private counter).
func CheckResumeMatchesReset(t *testing.T, dut rtl.DUT, resumes func(rtl.Runner) int) {
	t.Helper()

	// One runner over the golden set and 200 fuzzer-shaped bodies:
	// every run but the first resumes, and each inherits the caches,
	// predictors, rings and memory the previous one left behind.
	bodies := appendFuzzerShaped(Programs(), 19, 200)
	g := newResumeRig(t, dut, resumes)
	for i, body := range bodies {
		img, budget := std(body)
		g.run(fmt.Sprintf("body %d", i), img, budget, nil, i > 0)
	}

	// Runs that must not resume from a standard-harness checkpoint,
	// each followed by one that still does.
	clean, budget := std(bodies[64])
	init := clean.Segments[0]
	n := len(init.Data) / 4 // prologue length in instructions
	lastLine := init.Base + uint64(len(init.Data))
	noBody := clean
	noBody.Body = 0
	otherBody := foreign(isa.NOP)
	otherBody.Body += 4
	some := dut.Run(clean, budget).Coverage.Snapshot()
	for _, tc := range []struct {
		name   string
		img    mem.Image
		budget int
		pre    []uint64
		resume bool
	}{
		{"Body unknown", noBody, budget, nil, false},
		{"first init word patched", patched(clean, init.Base, 0x13, 0, 0, 0), budget, nil, false},
		{"an init immediate patched", patched(clean, init.Base+4*uint64(n/2)+3, 0x7f), budget, nil, false},
		{"last init word patched", patched(clean, lastLine-4, 0x13, 0, 0, 0), budget, nil, false},
		{"padding of the last prologue line written", patched(clean, lastLine, 1, 2, 3), budget, nil, false},
		{"last byte of the last prologue line written", patched(clean, lastLine|63, 0xff), budget, nil, false},
		{"handler patched (not a prologue line)", patched(clean, clean.Segments[1].Base, 0x13, 0, 0, 0), budget, nil, true},
		{"budget below the prologue", clean, n / 2, nil, false},
		{"budget equal to the prologue", clean, n, nil, false},
		{"budget one above the prologue", clean, n + 1, nil, true},
		{"another entry", mem.Image{Entry: clean.Body, Body: clean.Body, Segments: clean.Segments}, budget, nil, false},
		{"another Body", otherBody, budget, nil, false},
		{"non-empty set", clean, budget, some, true},
		{"full set", clean, budget, slices.Repeat([]uint64{^uint64(0)}, len(some)), true},
	} {
		g.run(tc.name, tc.img, tc.budget, tc.pre, tc.resume)
		g.run("after "+tc.name, clean, budget, nil, true)
	}

	// Prologues that must never be checkpointed, each on a runner that
	// sees nothing else, and the clean ones that are.
	auipc := isa.Enc(isa.OpAUIPC, isa.T0, 0, 0, 0)
	// Six jumps 4 KiB apart: one I-cache set, more lines than ways.
	far := foreign()
	far.Segments = far.Segments[:1]
	for i := int64(0); i < 6; i++ {
		off := int64(0x1000)
		if i == 5 {
			off = 0x800 - i<<12
		}
		far.AddWords(mem.TextBase+uint64(i)<<12, []uint32{isa.Enc(isa.OpJAL, 0, 0, 0, off)})
	}
	for _, tc := range []struct {
		name   string
		img    mem.Image
		resume bool
	}{
		{"clean foreign prologue", foreign(isa.NOP, isa.Enc(isa.OpADDI, isa.A0, 0, 0, 7)), true},
		{"empty prologue", mem.Image{Entry: clean.Body, Body: clean.Body, Segments: clean.Segments}, true},
		{"load", foreign(auipc, isa.Enc(isa.OpLW, isa.T1, isa.T0, 0, 0)), false},
		{"store", foreign(auipc, isa.Enc(isa.OpSW, 0, isa.T0, isa.T1, 0x100)), false},
		{"failed SC", foreign(auipc, isa.EncAMO(isa.OpSCW, isa.T1, isa.T0, isa.T1, false, false)), false},
		{"trap", foreign(auipc, isa.Enc(isa.OpADDI, isa.T0, isa.T0, 0, 16),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMTVec), isa.Encode(isa.Inst{Op: isa.OpECALL})), false},
		{"trap loop that never reaches Body", foreign(isa.Encode(isa.Inst{Op: isa.OpECALL})), false},
		{"drop to U-mode", foreign(auipc, isa.Enc(isa.OpADDI, isa.T0, isa.T0, 0, 16),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMEPC), isa.Encode(isa.Inst{Op: isa.OpMRET}), isa.NOP), false},
		{"FENCE.I last", foreign(isa.NOP, isa.Encode(isa.Inst{Op: isa.OpFENCEI})), false},
		{"FENCE.I, refilled line", foreign(isa.Encode(isa.Inst{Op: isa.OpFENCEI}), isa.NOP), false},
		{"evicted prologue line", far, false},
	} {
		g := newResumeRig(t, dut, resumes)
		g.run(tc.name+" (first)", tc.img, 2000, some, false) // captured under a non-empty set
		g.run(tc.name+" (second)", tc.img, 2000, nil, tc.resume)
		g.run(tc.name+" (standard image)", clean, budget, nil, false) // one checkpoint, one verdict
		g.run(tc.name+" (third)", tc.img, 2000, nil, tc.resume)
	}

	// A prologue that spins short of Body is the state after its budget,
	// not the state at Body: a longer run must not start from it.
	spin := foreign()
	spin.Segments[1] = mem.Segment{Base: mem.TextBase, Data: []byte{0x6f, 0, 0, 0}} // j .
	g = newResumeRig(t, dut, resumes)
	g.run("spin", spin, 100, nil, false)
	g.run("spin, longer", spin, 200, nil, false)
}
