// Package vtime models the wall-clock of the paper's evaluation rig:
// ten parallel Synopsys VCS instances simulating RTL at a few kHz.
// Experiments charge each test's simulated cycles plus a fixed
// per-test overhead against the clock, making every time-based result
// (Fig. 2, time-to-75 %, the 49-minute BOOM run) deterministic and
// hardware-independent while preserving the relative speed of the
// fuzzers ("ChatFuzz and TheHuzz incur similar runtime overhead").
//
//chatfuzz:deterministic package
package vtime

import "time"

// Clock accumulates virtual seconds across simulated tests.
type Clock struct {
	// Instances is the number of parallel simulator instances the
	// aggregate throughput is divided by (the paper uses ten VCS
	// instances).
	Instances int
	// SecondsPerCycle is the RTL simulation cost of one core cycle.
	SecondsPerCycle float64
	// OverheadPerTest is the fixed per-test cost (simulator setup,
	// image load, coverage-database write).
	OverheadPerTest float64

	elapsed float64
}

// NewVCS returns a clock calibrated to the paper's observed
// throughput: ~1.8 K tests in ~52 minutes of aggregate wall-clock on
// ten instances (≈1.73 s per test), with the RTL simulator running at
// roughly 1 kHz.
func NewVCS() *Clock {
	return &Clock{
		Instances:       10,
		SecondsPerCycle: 1.0 / 1000.0,
		OverheadPerTest: 12.0,
	}
}

// ChargeTest accounts one simulated test of the given cycle count.
func (c *Clock) ChargeTest(cycles uint64) {
	inst := c.Instances
	if inst <= 0 {
		inst = 1
	}
	c.elapsed += (c.OverheadPerTest + float64(cycles)*c.SecondsPerCycle) / float64(inst)
}

// Elapsed returns the virtual wall-clock time so far.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.elapsed * float64(time.Second))
}

// Hours returns the elapsed virtual time in hours.
func (c *Clock) Hours() float64 { return c.elapsed / 3600 }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.elapsed = 0 }

// Seconds returns the exact elapsed virtual seconds, for checkpoint
// serialization (Elapsed rounds through time.Duration's nanosecond
// grid, which would perturb resumed trajectories in the last bits).
func (c *Clock) Seconds() float64 { return c.elapsed }

// SetSeconds restores the clock to an exact elapsed value.
func (c *Clock) SetSeconds(s float64) { c.elapsed = s }
