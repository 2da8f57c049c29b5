package iss

import (
	"testing"

	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/simtest"
	"chatfuzz/internal/trace"
)

// goldenSimulation was recorded on the commit before the memory
// hierarchy moved to page tables and line fills (PR 16's parent).
const goldenSimulation = "e7bdf13e0c6a6af9bf0120e15b1a87934c6569f57f172072b01a730d0189a240"

// TestGoldenSimulation pins every trace entry, register and exit state
// of the simtest program set, through a fresh memory per Run and
// through one reset memory and trace buffer.
func TestGoldenSimulation(t *testing.T) {
	gmem := mem.Platform()
	var buf []trace.Entry
	fresh, reused := simtest.NewDigest(), simtest.NewDigest()
	for _, body := range simtest.Programs() {
		img, _ := prog.MustBuild(prog.Program{Body: body})

		m := mem.Platform()
		m.Load(img)
		s := New(m, img.Entry)
		fresh.Trace(s.Run(prog.InstructionBudget(len(body))))
		fresh.Outcome(s.Halted, s.ExitCode, s.X)

		gmem.Reset()
		gmem.Load(img)
		s = New(gmem, img.Entry)
		buf = s.RunAppend(buf, prog.InstructionBudget(len(body)))
		reused.Trace(buf)
		reused.Outcome(s.Halted, s.ExitCode, s.X)
	}
	if got := fresh.Sum(); got != goldenSimulation {
		t.Errorf("Run digest = %s, want %s", got, goldenSimulation)
	}
	if got := reused.Sum(); got != goldenSimulation {
		t.Errorf("RunAppend digest = %s, want %s", got, goldenSimulation)
	}
}
