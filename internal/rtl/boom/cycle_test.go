package boom

import (
	"testing"

	"chatfuzz/internal/mem"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/simtest"
)

// runStepwise is Run with every step simulated: the oracle of exec's
// completion by copy.
func runStepwise(dut *Boom) func(mem.Image, int) rtl.Result {
	return func(img mem.Image, maxInsts int) rtl.Result {
		m := mem.Platform()
		m.Load(img)
		st := dut.reset(m, img.Entry, newCore(), newRing[inflight](robSize), newRing[pendingStore](sqSize), dut.space.NewSet(), nil)
		for i := 0; i < maxInsts && !st.halted; i++ {
			st.step()
		}
		return st.result()
	}
}

func repeats(w rtl.Runner) int { return w.(*runner).mk.repeats }

// TestCycleSkipMatchesStepwise holds Run and the runner, which complete
// a run caught in a cycle by copy, to stepping it out.
func TestCycleSkipMatchesStepwise(t *testing.T) {
	dut := New()
	simtest.CheckCycleSkipMatchesStepwise(t, dut, runStepwise(dut), repeats)
}

// FuzzCycleSkipMatchesStepwise is TestCycleSkipMatchesStepwise on
// arbitrary bodies and budgets.
func FuzzCycleSkipMatchesStepwise(f *testing.F) {
	dut := New()
	simtest.FuzzDUTCycleSkip(f, dut, runStepwise(dut), repeats)
}
