package vtime

import (
	"math"
	"testing"
)

// TestChargeTestAccumulates: each charge adds (overhead + cycles ×
// seconds per cycle) / instances, in the order charged.
func TestChargeTestAccumulates(t *testing.T) {
	c := NewVCS()
	c.ChargeTest(5000)
	if got := c.Seconds(); math.Abs(got-1.7) > 1e-12 {
		t.Fatalf("a 5000-cycle test costs %v s, want 1.7 (12 s + 5 s on ten instances)", got)
	}
	want := c.Seconds()
	for _, cycles := range []uint64{0, 1, 123456} {
		c.ChargeTest(cycles)
		want += (overheadPerTest + float64(cycles)*secondsPerCycle) / instances
		if c.Seconds() != want {
			t.Fatalf("after %d cycles: Seconds = %v, want %v", cycles, c.Seconds(), want)
		}
	}
}

// TestInstancesDivideThroughput: the rig's instances share the load, so
// 100 tests of 2000 cycles, 100 × 14 s = 1400 s on one simulator, read
// 140 s on the ten-instance clock.
func TestInstancesDivideThroughput(t *testing.T) {
	c := NewVCS()
	for i := 0; i < 100; i++ {
		c.ChargeTest(2000)
	}
	if got := c.Hours() * 3600; math.Abs(got-140) > 1e-9 {
		t.Errorf("100 tests of 2000 cycles read %v s, want 140 (1400 s on one simulator / 10 instances)", got)
	}
}

func TestVCSCalibration(t *testing.T) {
	// The calibrated clock must place ~1.8 K average tests in the
	// 40-70 virtual-minute range (paper: 52 minutes).
	c := NewVCS()
	for i := 0; i < 1800; i++ {
		c.ChargeTest(4000) // a typical test's cycle count
	}
	min := c.Hours() * 60
	if min < 35 || min > 80 {
		t.Errorf("1800 tests -> %.1f virtual minutes; calibration target ~52", min)
	}
}

func TestHours(t *testing.T) {
	c := NewVCS()
	if c.Seconds() != 0 || c.Hours() != 0 {
		t.Errorf("a new clock reads %v s, %v h, want 0", c.Seconds(), c.Hours())
	}
	c.SetSeconds(36)
	if c.Hours() != 0.01 {
		t.Errorf("Hours = %v, want 0.01", c.Hours())
	}
}

func TestSecondsRoundTripExact(t *testing.T) {
	c := NewVCS()
	for i := 0; i < 1000; i++ {
		c.ChargeTest(uint64(137 * i))
	}
	s := c.Seconds()
	c2 := NewVCS()
	c2.SetSeconds(s)
	if c2.Hours() != c.Hours() {
		t.Errorf("Hours after SetSeconds = %v, want exactly %v", c2.Hours(), c.Hours())
	}
	if c2.Seconds() != s {
		t.Errorf("Seconds round trip changed the value")
	}
}
