package simtest_test

import (
	"encoding/binary"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/simtest"
	"chatfuzz/internal/trace"
)

// FuzzResumeMatchesReset drives arbitrary bodies, budgets and harness
// patches through one long-lived runner per design — so nearly every
// run starts from the runner's post-prologue checkpoint, over whatever
// the previous input left in memory, caches, predictors and rings — and
// requires each result to equal a fresh from-reset Run in every field.
// A patch inside [TextBase, TextBase+0x800) rewrites the harness itself:
// the runner has to notice and run such an image from reset.
func FuzzResumeMatchesReset(f *testing.F) {
	words := func(ws ...uint32) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		return b
	}
	clean := words(isa.Enc(isa.OpADD, isa.A0, isa.A1, isa.A2, 0), isa.Enc(isa.OpLD, isa.A3, isa.S0, 0, 8),
		isa.Enc(isa.OpBNE, 0, isa.A0, isa.A1, 8), isa.Enc(isa.OpMUL, isa.A4, isa.A5, isa.A6, 0))
	f.Add(clean, uint16(0xFFFF), uint32(0), uint16(0))
	// Overwrite the second init word (s8 = TextBase) and run the init
	// section again: the I-cache serves the old word, memory the new.
	f.Add(words(isa.Enc(isa.OpSW, 0, isa.S8, isa.A5, 4), isa.Enc(isa.OpJALR, 0, isa.S8, 0, 0)), uint16(0xFFFF), uint32(0), uint16(0))
	f.Add(clean, uint16(0x40), uint32(isa.NOP), uint16(0))  // a patched init word
	f.Add(clean, uint16(0x1B8), uint32(1), uint16(0))       // the padding after the init section
	f.Add(clean, uint16(0x404), uint32(isa.NOP), uint16(0)) // the trap handler: not a prologue line
	f.Add(clean, uint16(0xFFFF), uint32(0), uint16(3))      // a budget inside the prologue
	f.Add(clean, uint16(0xFFFF), uint32(0), uint16(110))    // and one just past it

	type rig struct {
		dut    rtl.ReusableDUT
		runner rtl.Runner
		buf    []trace.Entry
	}
	rigs := []*rig{{dut: rocket.New()}, {dut: boom.New()}}
	warm, _ := prog.MustBuild(prog.Program{})
	for _, g := range rigs {
		// The first image a runner sees decides its checkpoint: make it
		// the standard harness's, whatever order the inputs arrive in.
		g.runner = g.dut.NewRunner()
		g.buf = g.runner.RunScratch(warm, 200, g.dut.Space().NewSet(), nil).Trace
	}
	f.Fuzz(func(t *testing.T, body []byte, patchOff uint16, patchVal uint32, budget uint16) {
		p := prog.Program{Body: make([]uint32, min(len(body)/4, 64))}
		for i := range p.Body {
			p.Body[i] = binary.LittleEndian.Uint32(body[4*i:])
		}
		img, _ := prog.MustBuild(p)
		if patchOff < 0x800 {
			img.Segments = append(img.Segments, mem.Segment{
				Base: mem.TextBase + uint64(patchOff&^3),
				Data: binary.LittleEndian.AppendUint32(nil, patchVal),
			})
		}
		n := int(budget) % 1024
		if n == 0 {
			n = prog.InstructionBudget(len(p.Body))
		}
		for _, g := range rigs {
			got := g.runner.RunScratch(img, n, g.dut.Space().NewSet(), g.buf)
			g.buf = got.Trace
			if d := simtest.Diff(got, g.dut.Run(img, n)); d != "" {
				t.Fatalf("%s: RunScratch differs from Run: %s", g.dut.Name(), d)
			}
		}
	})
}
