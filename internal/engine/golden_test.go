package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/trace"
)

// fullGoldenRun is the reference: execute from reset, prologue and all.
func fullGoldenRun(img mem.Image, budget int) []trace.Entry {
	m := mem.Platform()
	m.Load(img)
	return iss.New(m, img.Entry).Run(budget)
}

// checkTrace fails the test unless got is want, entry for entry.
func checkTrace(t *testing.T, label string, got, want []trace.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: delta replay trace has %d entries, full run %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d differs:\n  delta: %v\n  full:  %v", label, i, got[i], want[i])
		}
	}
}

// TestGoldenRunMatchesFullRun: the prologue delta replay must be
// bit-identical to a from-reset golden run for every kind of body the
// fuzzers produce — valid instruction mixes, raw mostly-illegal words
// (trap storms through the handler), the empty body, a body that
// patches its own text and then executes the patched word, and two
// bodies sharing a 16-word prefix — both through a fresh memory per
// run and through one memory (Reset between runs) and one reused trace
// buffer, the shape worker.exec uses.
func TestGoldenRunMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var bodies [][]uint32
	for i := 0; i < 8; i++ {
		bodies = append(bodies, randinst.Program(rng, 24))
	}
	for i := 0; i < 4; i++ {
		raw := make([]uint32, 16)
		for j := range raw {
			raw[j] = rng.Uint32()
		}
		bodies = append(bodies, raw)
	}
	bodies = append(bodies, nil) // empty body: epilogue only

	// Self-modifying: word 3 is overwritten with word 5 (s9 holds
	// BodyBase) before it executes, so the run must fetch the stored
	// word, and the next run through the same memory the image's.
	patch := isa.Enc(isa.OpADDI, isa.A1, 0, 0, 77)
	selfMod := len(bodies)
	bodies = append(bodies, []uint32{
		isa.Enc(isa.OpLW, isa.T0, isa.S9, 0, 20),
		isa.Enc(isa.OpSW, 0, isa.S9, isa.T0, 12),
		isa.Enc(isa.OpADDI, 0, 0, 0, 0),
		isa.Enc(isa.OpADDI, isa.A1, 0, 0, 11),
		isa.Enc(isa.OpADDI, isa.A2, isa.A1, 0, 0),
		patch,
	})
	prefix := randinst.Program(rng, 16)
	for i := 0; i < 2; i++ {
		bodies = append(bodies, append(append([]uint32{}, prefix...), randinst.Program(rng, 8)...))
	}

	gmem := mem.Platform()
	var buf []trace.Entry
	for pass := 0; pass < 2; pass++ { // the second pass meets a used memory and buffer throughout
		for bi, body := range bodies {
			img, layout, err := prog.Build(prog.Program{Body: body})
			if err != nil {
				t.Fatalf("body %d: %v", bi, err)
			}
			budget := prog.InstructionBudget(len(body))
			want := fullGoldenRun(img, budget)
			if bi == selfMod {
				patched := false
				for _, e := range want {
					patched = patched || (e.PC == layout.BodyBase+12 && e.Raw == patch)
				}
				if !patched {
					t.Fatal("self-modifying body never executed its patched word")
				}
			}
			label := fmt.Sprintf("pass %d body %d", pass, bi)
			checkTrace(t, label+", fresh memory", GoldenRun(mem.Platform(), img, budget, nil), want)
			gmem.Reset()
			buf = GoldenRun(gmem, img, budget, buf)
			checkTrace(t, label+", reused memory", buf, want)
		}
	}
}

// TestGoldenRunSmallBudgetFallsBack: a budget too small to clear the
// prologue must truncate exactly like a from-reset run, not replay a
// longer cached prologue.
func TestGoldenRunSmallBudgetFallsBack(t *testing.T) {
	img, _ := prog.MustBuild(prog.Program{Body: []uint32{0x00000013}}) // addi x0,x0,0
	for _, budget := range []int{0, 1, 7, 50} {
		checkTrace(t, fmt.Sprintf("budget %d", budget), GoldenRun(mem.Platform(), img, budget, nil), fullGoldenRun(img, budget))
	}
}

// TestGoldenRunReusesBuffer: the returned slice must reuse the caller's
// buffer capacity (the engine workers pool these).
func TestGoldenRunReusesBuffer(t *testing.T) {
	img, _ := prog.MustBuild(prog.Program{})
	budget := prog.InstructionBudget(0)
	first := GoldenRun(mem.Platform(), img, budget, nil)
	buf := first[:0]
	second := GoldenRun(mem.Platform(), img, budget, buf)
	if &second[0] != &first[0] {
		t.Error("GoldenRun did not append into the provided buffer")
	}
}
