// Package rtl defines the interface between the fuzzers and the
// simulated designs under test (the paper's Synopsys VCS + Chipyard
// substitute). A DUT executes a test image cycle-by-cycle, emits a
// commit trace, and records condition coverage. The fuzzing loop and
// the pipeline's coverage training run every test on a Runner that
// reuses its scratch; DUT.Run, which builds fresh state per call, is
// the from-reset oracle the runners are held to: the campaign's serial
// reference loop, internal/simtest and the tests call it, and so does
// internal/mismatch's ExampleDetector for its five trigger programs.
//
//chatfuzz:deterministic package
package rtl

import (
	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/trace"
)

// Result is the outcome of simulating one test input on a DUT.
type Result struct {
	// Trace is the commit trace as reported by the DUT's tracer module
	// (which, on Rocket, contains the injected tracer bugs).
	Trace []trace.Entry
	// Coverage is the set of condition bins this run hit.
	Coverage *cov.Set
	// Cycles is the number of simulated core cycles.
	Cycles uint64
	// Halted reports whether the program ended via the tohost store.
	Halted bool
	// ExitCode is the tohost value when Halted.
	ExitCode uint64
	// Regs is the final architectural register file, for differential
	// debugging and tests.
	Regs [32]uint64
	// Restored is how many leading Trace entries a runner copied from
	// its checkpoint instead of simulating them (RunScratch on resume);
	// DUT.Run and runs from reset leave it 0.
	Restored int
}

// DUT is a simulated processor design.
type DUT interface {
	// Name identifies the design ("rocket" or "boom").
	Name() string
	// Space is the DUT's condition-coverage space, fixed at build time.
	Space() *cov.Space
	// Run simulates the image from reset until the program halts or
	// maxInsts instructions have been attempted. A run caught in an
	// exact cycle (hart.Marks) is completed by copy; what it reports is
	// identical to stepping it out. Run is the from-reset oracle: the
	// fuzzing loop runs every test on a Runner and is tested against it.
	Run(img mem.Image, maxInsts int) Result
	// NewRunner returns a fresh worker-private execution context.
	NewRunner() Runner
}

// Runner is a reusable execution context over one DUT, owned by a
// single simulation worker. Unlike DUT.Run — which allocates platform
// memory, microarchitectural state and a coverage set per call — a
// Runner keeps that scratch alive across calls and resets it, so the
// steady-state fuzzing loop is allocation-free. A Runner is not
// goroutine-safe; concurrent workers each hold their own. DUT.Run stays
// the from-reset oracle the runners are tested against.
type Runner interface {
	// RunScratch simulates exactly like DUT.Run but records coverage
	// into set and appends the commit trace to tr[:0]. set must be
	// empty and belong to the DUT's Space or a structurally identical
	// one: the engine keeps one runner per design name and hands it
	// sets of every same-named DUT instance, so what a runner keeps of
	// coverage across calls it keeps as raw words. The returned Result
	// references set and the appended trace, so both stay owned by the
	// caller and can be pooled once the result has been consumed.
	//
	// When img.Body is set, a runner may start from a copy of the state
	// an earlier run reached there, having checked that this image's
	// prologue reads the same bytes (rocket's and boom's runner): the
	// Result is still the one a run from reset returns, bit for bit.
	RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) Result
}

// ReusableDUT is DUT under its former name. It stays only because the
// benchmark harness (bench/fleet.go, bench/trace.go) still spells it,
// and leaves with that harness's next revision.
type ReusableDUT = DUT
