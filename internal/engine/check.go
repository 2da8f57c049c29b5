package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"chatfuzz/internal/trace"
)

// Scratch-ownership checker: a test hook that verifies no reusable
// scratch object is ever observed by two execution contexts at once.
// The engine's correctness with pool workers and committers sharing
// rounds rests on two ownership rules — a pooled object (coverage set,
// trace buffer) has exactly one holder between get and put, and a
// worker's design-bound scratch (runner, golden memory) is entered by
// exactly one goroutine at a time. The checker turns a violation of
// either rule into a recorded report instead of silent state
// corruption, and is how the -race stress tests assert the worker
// path's isolation. Production builds pay a single atomic nil-load per
// event.

// scratchState is the pool-tracking state of one scratch object.
type scratchState int8

const (
	scratchFree scratchState = iota // in a free list
	scratchOut                      // checked out by a holder
)

type scratchChecker struct {
	mu         sync.Mutex
	pooled     map[any]scratchState
	inUse      map[any]string
	violations []string
}

// scratchCheck is nil in production; EnableScratchCheck installs a
// checker for the duration of a test.
var scratchCheck atomic.Pointer[scratchChecker]

// EnableScratchCheck arms the scratch-ownership checker and returns a
// stop function that disarms it and reports every violation observed.
// Tests must stop the checker before enabling a new one; engines and
// pools running concurrently all report into the same checker.
func EnableScratchCheck() (stop func() []string) {
	ck := &scratchChecker{
		pooled: make(map[any]scratchState),
		inUse:  make(map[any]string),
	}
	if !scratchCheck.CompareAndSwap(nil, ck) {
		panic("engine: scratch check already enabled")
	}
	return func() []string {
		scratchCheck.Store(nil)
		ck.mu.Lock()
		defer ck.mu.Unlock()
		return ck.violations
	}
}

// sliceKey derives a comparable identity for a pooled buffer: the
// address of its first backing element. Buffers are pooled at length
// zero but non-zero capacity; a zero-capacity slice has no identity
// and returns nil (the checker ignores nil keys).
func sliceKey(s []trace.Entry) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:1][0]
}

// checkOut records that a pooled object acquired from a free list is
// now held. Two holders without an intervening checkIn means the
// free list handed one object out twice.
func (ck *scratchChecker) checkOut(key any, what string) {
	if key == nil {
		return
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if st, known := ck.pooled[key]; known && st == scratchOut {
		ck.violations = append(ck.violations,
			fmt.Sprintf("%s %p checked out while already held", what, key))
	}
	ck.pooled[key] = scratchOut
}

// checkIn records that a pooled object returned to a free list. A
// double put is the classic path to two concurrent holders, so it is
// a violation in itself. Unknown keys are recorded without complaint:
// a buffer that grew during use returns under the identity of its new
// backing array.
func (ck *scratchChecker) checkIn(key any, what string) {
	if key == nil {
		return
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if st, known := ck.pooled[key]; known && st == scratchFree {
		ck.violations = append(ck.violations,
			fmt.Sprintf("%s %p returned to the pool twice", what, key))
	}
	ck.pooled[key] = scratchFree
}

// useBegin marks an execution context (a worker and its design-bound
// runner and golden memory) as entered; a second concurrent entry is
// the shared-execution bug this checker exists to catch.
func (ck *scratchChecker) useBegin(key any, what string) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if holder, busy := ck.inUse[key]; busy {
		ck.violations = append(ck.violations,
			fmt.Sprintf("%s %p entered concurrently (already in use by %s)", what, key, holder))
		return
	}
	ck.inUse[key] = what
}

func (ck *scratchChecker) useEnd(key any) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	delete(ck.inUse, key)
}
