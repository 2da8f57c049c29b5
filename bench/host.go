//go:build linux

package main

import (
	"runtime"
	"syscall"
	"time"
)

// procStart is when the process began; setup_s counts from here.
var procStart = time.Now()

// hostSnap is a point-in-time reading of the process's resource use;
// layer metrics are deltas between two of them.
type hostSnap struct {
	at        time.Time
	user, sys float64 // CPU seconds
	gcPauseNs uint64
	allocB    uint64
}

func readHost() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return hostSnap{at: time.Now(), user: tv(ru.Utime), sys: tv(ru.Stime), gcPauseNs: ms.PauseTotalNs, allocB: ms.TotalAlloc}
}

// peakRSSMB is the process's high-water resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
