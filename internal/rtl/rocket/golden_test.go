package rocket

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
	simtest.CheckGoldenDUT(t, New(), "819c475134760ee53ce2fca33d6ad15d8f6ef52253712922deeef04cba53e0f4")
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
