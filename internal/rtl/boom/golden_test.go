package boom

import (
	"testing"

	"chatfuzz/internal/rtl"
	"chatfuzz/internal/simtest"
)

// TestGoldenSimulation pins every trace entry, cycle count, register,
// exit state and coverage bit of the simtest program set, through the
// allocating Run and through one reused runner. The digest was recorded
// on the commit before the memory hierarchy moved to page tables and
// line fills (PR 16's parent).
func TestGoldenSimulation(t *testing.T) {
	simtest.CheckGoldenDUT(t, New(), "131c3b14cfef2b7429985c548daecba8ec692893a8a964f99f45fce43d4da3a5")
}

// TestRunScratchAllocFree holds the runner to its doc comment.
func TestRunScratchAllocFree(t *testing.T) {
	simtest.CheckRunScratchAllocFree(t, New())
}

// TestResumeMatchesReset holds the runner's post-prologue checkpoint to
// the from-reset oracle, and to resuming exactly when it says it does.
func TestResumeMatchesReset(t *testing.T) {
	simtest.CheckResumeMatchesReset(t, New(), func(r rtl.Runner) int { return r.(*runner).resumes })
}
