package vtime

import (
	"math"
	"testing"
	"time"
)

func TestChargeTestAccumulates(t *testing.T) {
	c := &Clock{Instances: 1, SecondsPerCycle: 0.001, OverheadPerTest: 10}
	c.ChargeTest(5000) // 10 + 5 = 15 s
	if got := c.Elapsed(); got != 15*time.Second {
		t.Errorf("Elapsed = %v, want 15s", got)
	}
}

func TestInstancesDivideThroughput(t *testing.T) {
	one := &Clock{Instances: 1, SecondsPerCycle: 0.001, OverheadPerTest: 10}
	ten := &Clock{Instances: 10, SecondsPerCycle: 0.001, OverheadPerTest: 10}
	for i := 0; i < 100; i++ {
		one.ChargeTest(2000)
		ten.ChargeTest(2000)
	}
	if math.Abs(one.Hours()-10*ten.Hours()) > 1e-9 {
		t.Errorf("ten instances must be 10x faster: %v vs %v", one.Hours(), ten.Hours())
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

func TestReset(t *testing.T) {
	c := NewVCS()
	c.SetSeconds(36)
	if c.Hours() != 0.01 {
		t.Errorf("Hours = %v, want 0.01", c.Hours())
	}
	c.Reset()
	if c.Elapsed() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestZeroInstancesDefaultsToOne(t *testing.T) {
	c := &Clock{SecondsPerCycle: 0.001, OverheadPerTest: 1}
	c.ChargeTest(1000)
	if c.Elapsed() != 2*time.Second {
		t.Errorf("Elapsed = %v, want 2s", c.Elapsed())
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
	// Elapsed() would round through nanoseconds; Seconds must not.
	if c2.Seconds() != s {
		t.Errorf("Seconds round trip changed the value")
	}
}
