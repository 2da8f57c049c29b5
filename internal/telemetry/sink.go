package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"chatfuzz/internal/atomicio"
)

// snapshotLine is one JSONL record of the snapshot sink: a wall-clock
// stamp (milliseconds since the sink started — execution-only, like
// every timestamp in this package) plus the frozen registry.
type snapshotLine struct {
	UptimeMS int64 `json:"uptime_ms"`
	Snapshot
}

// WriteSnapshot appends one JSONL snapshot line for the registry to
// w. uptimeMS stamps the line; the serialized form is deterministic
// for equal registry state and stamp (encoding/json sorts map keys).
// File-backed writers are fsynced after the line, so a killed soak
// run durably keeps every snapshot it reported writing — losing at
// most the interval since the last tick, never a torn file of stale
// pages (atomicio.Fsync is a no-op for non-file writers).
func WriteSnapshot(w io.Writer, g *Registry, uptimeMS int64) error {
	b, err := json.Marshal(snapshotLine{UptimeMS: uptimeMS, Snapshot: g.Snapshot()})
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err = w.Write(b); err != nil {
		return err
	}
	return atomicio.Fsync(w)
}

// Snapshotter periodically appends registry snapshots to a writer as
// JSON Lines — the soak-run sink: one line per interval, each a
// complete picture, so a killed run loses at most the last interval.
type Snapshotter struct {
	w    io.Writer
	reg  *Registry
	t0   time.Time
	stop chan struct{}
	done chan error
	once sync.Once
}

// NewSnapshotter starts a background goroutine writing one snapshot
// line every interval. Stop writes a final line and joins the
// goroutine. The writer must not be shared while the snapshotter
// runs.
func NewSnapshotter(w io.Writer, g *Registry, every time.Duration) *Snapshotter {
	if every <= 0 {
		every = 5 * time.Second
	}
	s := &Snapshotter{
		w:   w,
		reg: g,
		// Sink timebase for the uptime stamps. Execution-only.
		//lint:allow wallclock snapshot-sink timebase is execution-only
		t0:   time.Now(),
		stop: make(chan struct{}),
		done: make(chan error, 1),
	}
	go s.loop(every)
	return s
}

func (s *Snapshotter) loop(every time.Duration) {
	// The periodic sink's cadence. Execution-only: snapshots observe
	// the registry; nothing reads them back.
	//lint:allow wallclock snapshot-sink ticker is execution-only
	tick := time.NewTicker(every)
	defer tick.Stop()
	var err error
	for {
		select {
		case <-tick.C:
			if werr := WriteSnapshot(s.w, s.reg, s.uptimeMS()); werr != nil && err == nil {
				err = werr
			}
		case <-s.stop:
			// Final snapshot so short runs still record their end state.
			if werr := WriteSnapshot(s.w, s.reg, s.uptimeMS()); werr != nil && err == nil {
				err = werr
			}
			s.done <- err
			return
		}
	}
}

func (s *Snapshotter) uptimeMS() int64 {
	// Uptime stamps on snapshot lines. Execution-only.
	//lint:allow wallclock snapshot-sink stamps are execution-only
	return int64(time.Since(s.t0) / time.Millisecond)
}

// Stop writes a final snapshot, stops the background goroutine and
// returns the first write error the sink hit. Idempotent.
func (s *Snapshotter) Stop() error {
	var err error
	s.once.Do(func() {
		close(s.stop)
		err = <-s.done
	})
	return err
}
