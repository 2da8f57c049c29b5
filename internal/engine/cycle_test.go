package engine

import (
	"fmt"
	"testing"

	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/simtest"
	"chatfuzz/internal/trace"
)

// TestGoldenRunMatchesStepwise holds GoldenRun, which completes a run
// caught in a cycle by copy, to a from-reset run with every step
// simulated, over the bodies the simulators' cycle checks are held to.
func TestGoldenRunMatchesStepwise(t *testing.T) {
	gmem := mem.Platform()
	var buf []trace.Entry
	for i, body := range simtest.CycleBodies() {
		img, _ := prog.MustBuild(prog.Program{Body: body})
		budget := prog.InstructionBudget(len(body))
		m := mem.Platform()
		m.Load(img)
		s := iss.New(m, img.Entry)
		var want []trace.Entry
		for len(want) < budget && !s.Halted {
			e, _ := s.Step()
			want = append(want, e)
		}
		gmem.Reset()
		buf = GoldenRun(gmem, img, budget, buf)
		checkTrace(t, fmt.Sprintf("body %d", i), buf, want)
	}
}
