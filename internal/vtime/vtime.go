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

// The rig's calibration: ~1.8 K tests in ~52 minutes of aggregate
// wall-clock on ten instances (≈1.73 s per test), with the RTL
// simulator running at roughly 1 kHz.
const (
	// instances is the number of parallel simulator instances the
	// aggregate throughput is divided by (the paper uses ten VCS
	// instances).
	instances = 10
	// secondsPerCycle is the RTL simulation cost of one core cycle.
	secondsPerCycle = 1.0 / 1000.0
	// overheadPerTest is the fixed per-test cost (simulator setup,
	// image load, coverage-database write).
	overheadPerTest = 12.0
)

// Clock accumulates virtual seconds across simulated tests.
type Clock struct {
	elapsed float64
}

// NewVCS returns a clock at zero, calibrated to the paper's rig.
func NewVCS() *Clock { return &Clock{} }

// ChargeTest accounts one simulated test of the given cycle count.
func (c *Clock) ChargeTest(cycles uint64) {
	c.elapsed += (overheadPerTest + float64(cycles)*secondsPerCycle) / instances
}

// Hours returns the elapsed virtual time in hours.
func (c *Clock) Hours() float64 { return c.elapsed / 3600 }

// Seconds returns the exact elapsed virtual seconds, for checkpoint
// serialization.
func (c *Clock) Seconds() float64 { return c.elapsed }

// SetSeconds restores the clock to an exact elapsed value.
func (c *Clock) SetSeconds(s float64) { c.elapsed = s }
