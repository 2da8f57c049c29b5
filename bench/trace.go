//go:build linux

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// span is one timed call into a layer, recorded from outside it.
// Spans of one round (or farm job) share that round's id as parent.
type span struct {
	name       string
	id, parent int64
	start, end time.Duration // since procStart
}

// track is one goroutine's span list: a single writer appends without
// a lock, the recorder reads after the run has stopped.
type track struct {
	name  string
	spans []span
}

// recorder keeps a traced run's spans in memory until write.
type recorder struct {
	mu     sync.Mutex
	tracks []*track
	nextID atomic.Int64
	// parent is the id of the round now open: the cause of every DUT
	// span recorded while it runs.
	parent atomic.Int64
}

func (r *recorder) newTrack(name string) *track {
	t := &track{name: name}
	r.mu.Lock()
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	return t
}

// id reserves a span id, so that a span's children (the DUT runs of a
// round, the requests of a farm job) can name it before it ends.
func (r *recorder) id() int64 { return r.nextID.Add(1) }

// add records a span that started at start and ends now.
func (r *recorder) add(t *track, name string, id, parent int64, start time.Time) {
	t.spans = append(t.spans, span{name: name, id: id, parent: parent,
		start: start.Sub(procStart), end: time.Since(procStart)})
}

// durations returns the lengths, in seconds, of every span named name;
// call only once the run has stopped.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, t := range r.tracks {
		for _, s := range t.spans {
			if s.name == name {
				out = append(out, seconds(s.end-s.start))
			}
		}
	}
	return out
}

func (r *recorder) count() int {
	n := 0
	for _, t := range r.tracks {
		n += len(t.spans)
	}
	return n
}

// write dumps the spans as Chrome trace-event JSON (Perfetto opens it):
// one complete event per span, one thread per track.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for tid, t := range r.tracks {
		name, _ := json.Marshal(t.name)
		if !first {
			w.WriteByte(',')
		}
		first = false
		fmt.Fprintf(w, "\n"+`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%s}}`, tid, name)
		for _, s := range t.spans {
			fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
				s.name, tid, micros(s.start), micros(s.end-s.start), s.id, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedDUT decorates a design so every simulation the fleet runs on it
// is recorded as a "<design>.run" span. The engine drives a design that
// implements rtl.ReusableDUT through its runners, so that is where the
// timer sits; the determinism check holds the decorator to changing no
// bit, and the traced run fails if a simulation got past it.
type timedDUT struct {
	rtl.ReusableDUT
	rec  *recorder
	span string
}

func newTimedDUT(d rtl.ReusableDUT, rec *recorder) *timedDUT {
	return &timedDUT{ReusableDUT: d, rec: rec, span: d.Name() + ".run"}
}

func (d *timedDUT) NewRunner() rtl.Runner {
	return &timedRunner{inner: d.ReusableDUT.NewRunner(), dut: d, track: d.rec.newTrack(d.Name() + "/runner")}
}

// timedRunner is owned by one engine worker, like the runner it wraps.
type timedRunner struct {
	inner rtl.Runner
	dut   *timedDUT
	track *track
}

func (r *timedRunner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	t0 := time.Now()
	res := r.inner.RunScratch(img, maxInsts, set, tr)
	r.dut.rec.add(r.track, r.dut.span, r.dut.rec.id(), r.dut.rec.parent.Load(), t0)
	return res
}
