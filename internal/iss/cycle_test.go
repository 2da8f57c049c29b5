package iss

import (
	"slices"
	"testing"

	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/simtest"
	"chatfuzz/internal/trace"
)

// stepwise is Continue with every step simulated: the oracle of its
// completion by copy.
func stepwise(s *ISS, tr []trace.Entry, maxSteps int) []trace.Entry {
	for i := 0; i < maxSteps; i++ {
		e, ok := s.Step()
		if !ok {
			break
		}
		tr = append(tr, e)
		if s.Halted {
			break
		}
	}
	return tr
}

// checkCycleSkip runs img from reset, and from the body on as the
// engine's golden run does, and requires both to leave the trace and
// the state stepping it out does, counters included.
func checkCycleSkip(t *testing.T, name string, img mem.Image, budget int) {
	t.Helper()
	start := func() *ISS {
		m := mem.Platform()
		m.Load(img)
		return New(m, img.Entry)
	}
	want := start()
	wantTr := stepwise(want, nil, budget)
	same := func(how string, s *ISS, tr []trace.Entry) {
		t.Helper()
		if !slices.Equal(tr, wantTr) {
			t.Fatalf("%s, %s: trace of %d entries differs from stepping's %d", name, how, len(tr), len(wantTr))
		}
		if s.Snapshot() != want.Snapshot() || s.Halted != want.Halted || s.ExitCode != want.ExitCode {
			t.Fatalf("%s, %s: state %+v differs from stepping's %+v", name, how, s.Snapshot(), want.Snapshot())
		}
	}
	s := start()
	same("from reset", s, s.Run(budget))
	s = start()
	tr := stepwise(s, nil, 1)
	for len(tr) < budget && s.PC != img.Body && !s.Halted {
		tr = stepwise(s, tr, 1)
	}
	same("from the body", s, s.Continue(tr, budget-len(tr)))
}

// TestCycleSkipMatchesStepwise holds Run and Continue, which complete a
// run caught in a cycle by copy, to stepping it out.
func TestCycleSkipMatchesStepwise(t *testing.T) {
	for _, body := range simtest.CycleBodies() {
		img, _ := prog.MustBuild(prog.Program{Body: body})
		checkCycleSkip(t, "body", img, prog.InstructionBudget(len(body)))
	}
}

// FuzzCycleSkipMatchesStepwise is TestCycleSkipMatchesStepwise on
// arbitrary bodies and budgets.
func FuzzCycleSkipMatchesStepwise(f *testing.F) {
	simtest.FuzzCycleSkip(f, func(t *testing.T, img mem.Image, budget int) {
		checkCycleSkip(t, "input", img, budget)
	})
}
