// Fixture for the wallclock analyzer: wall-clock reads and timer
// construction are findings; annotated execution-only probes pass.
//
//chatfuzz:deterministic
package wallclock

import "time"

func reads() time.Duration {
	t0 := time.Now()      // want "time.Now reads the wall clock"
	return time.Since(t0) // want "time.Since reads the wall clock"
}

func timers(d time.Duration) {
	<-time.After(d)       // want "time.After reads the wall clock"
	_ = time.NewTicker(d) // want "time.NewTicker reads the wall clock"
}

func allowedTrailing() time.Time {
	return time.Now() //lint:allow wallclock execution-only probe in a fixture
}

func allowedAbove() time.Time {
	//lint:allow wallclock execution-only probe in a fixture
	return time.Now()
}

func notTheClock(d time.Duration) time.Duration {
	// Pure duration arithmetic never reads the clock.
	return d.Round(time.Millisecond)
}
