// Package telemetry is the fleet's observability plane: a span flight
// recorder exporting Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing) and a metrics registry with a JSONL snapshot sink
// and an optional expvar/pprof HTTP endpoint.
//
// # Flight recorder
//
// Every execution context that wants spans — an engine worker, a
// shard's committer goroutine, the orchestrator barrier, the
// off-barrier trainer — owns a Track: a preallocated ring buffer it
// alone writes during the hot loop. Recording a span is a wall-clock
// read plus a ring push behind the track's (uncontended) mutex; no
// allocation, no I/O. The rings are drained off the hot path — the
// campaign orchestrator calls Flush at each round commit — and the
// drained events stream to the trace writer as one JSON array of
// trace events. When a ring fills before the next drain the oldest
// events are overwritten (it is a flight recorder, not a log); the
// drop count is reported so soak runs know what they lost.
//
// # Execution-only contract
//
// Telemetry observes; it never steers. No recorder or registry state
// is checkpointed, read back by scheduling code, or allowed to reach
// trajectory state — a fixed-seed campaign produces bit-identical
// trajectories and checkpoint bytes with telemetry on or off
// (asserted by campaign.TestFleetPoolDeterminismTable). Every handle
// is nil-safe: a nil *Recorder hands out nil *Tracks whose methods
// return immediately, so instrumented hot loops pay one branch when
// telemetry is disabled.
//
// This package is deterministic-annotated so the fuzzlint wallclock
// analyzer audits its time reads: they are the flight recorder's
// timestamps and the snapshot sink's timer, execution-only by the
// contract above, and each carries its //lint:allow escape. Callers
// in deterministic scope never touch the clock themselves — they hand
// work to this package, which keeps their own files escape-free.
//
//chatfuzz:deterministic package
package telemetry

import (
	"bufio"
	"io"
	"sync"
	"time"
)

// Span names recorded by the instrumented layers.
// One vocabulary across engine, campaign and fleetlearn keeps traces
// and the CI validator in agreement.
const (
	// SpanGenerate covers one batch's program generation (core.Fuzzer).
	SpanGenerate = "generate"
	// SpanBuild covers one program's harness build (engine worker).
	SpanBuild = "build"
	// SpanSim covers one program's DUT simulation (engine worker).
	SpanSim = "sim"
	// SpanGolden covers one program's golden-model replay (engine
	// worker, detection only).
	SpanGolden = "golden"
	// SpanCommit covers one batch's in-order commit loop: scoring,
	// mismatch detection, clock and trajectory accounting.
	SpanCommit = "commit"
	// SpanRound covers one whole orchestrator scheduling round.
	SpanRound = "round"
	// SpanBarrier covers the orchestrator barrier: coverage merge,
	// bandit credit, pool sync and the learning step.
	SpanBarrier = "barrier"
	// SpanTrain covers one fleet PPO training pass (fleetlearn), on
	// the barrier or overlapped with the next round.
	SpanTrain = "train"
)

// trackCap is each track's preallocated ring capacity. Rings drain at
// every round commit, so this bounds one round's span volume per
// execution context, not the campaign's.
const trackCap = 4096

// event is one recorded trace event, a completed span. Timestamps are
// microseconds since the recorder's start.
type event struct {
	name string
	ts   int64 // µs
	dur  int64 // µs
}

// Recorder owns the flight recorder: the track registry, the shared
// timebase and the trace writer. Build one with NewRecorder, hand it
// to the layers being instrumented, Flush at natural drain points and
// Close when the run ends. All methods are safe on a nil receiver —
// a nil recorder is the disabled telemetry plane.
type Recorder struct {
	t0 time.Time

	mu     sync.Mutex // guards tracks and the writer
	tracks []*Track
	bw     *bufio.Writer
	werr   error
	opened bool // wrote the array opener
	first  bool // next event is the array's first
	closed bool
}

// NewRecorder builds a recorder streaming trace events to w as one
// Chrome trace-event JSON array. The array is completed by Close; a
// file cut short mid-run still loads in Perfetto, which tolerates a
// truncated array.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{
		// The recorder's timebase: every span timestamp is an offset
		// from this instant. Execution-only by the package contract.
		//lint:allow wallclock flight-recorder timebase is execution-only
		t0:    time.Now(),
		bw:    bufio.NewWriter(w),
		first: true,
	}
}

// now returns the recorder clock: microseconds since t0.
func (r *Recorder) now() int64 {
	// Span timestamps; never reaches checkpointed or trajectory state.
	//lint:allow wallclock flight-recorder timestamps are execution-only
	return int64(time.Since(r.t0) / time.Microsecond)
}

// NewTrack registers a new track named name — one single-writer
// execution context in the trace (an engine worker, a committer, the
// orchestrator). The name becomes the Perfetto thread name; the
// numeric thread id is assigned sequentially. Returns nil (a valid,
// inert track) when the recorder is nil.
func (r *Recorder) NewTrack(name string) *Track {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &Track{
		rec:  r,
		name: name,
		tid:  len(r.tracks) + 1,
		buf:  make([]event, trackCap),
	}
	r.tracks = append(r.tracks, t)
	return t
}

// Flush drains every track's ring into the trace writer. Call it off
// the hot path — at a round commit, not inside one. Safe on a nil
// recorder and safe to call concurrently with span recording (each
// ring is drained under its own lock).
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	for _, t := range r.tracks {
		t.drainInto(r)
	}
	if err := r.bw.Flush(); err != nil && r.werr == nil {
		r.werr = err
	}
}

// Dropped returns the total events lost to ring overwrites so far.
func (r *Recorder) Dropped() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, t := range r.tracks {
		t.mu.Lock()
		n += t.dropped
		t.mu.Unlock()
	}
	return n
}

// Close drains the tracks, completes the JSON array and flushes the
// writer. It does not close the underlying io.Writer — the caller
// opened it, the caller closes it. Close is idempotent and returns
// the first write error the recorder hit.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.Flush()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return r.werr
	}
	r.closed = true
	if !r.opened {
		// No events at all: still emit a valid (empty) trace.
		r.write("[")
	}
	r.write("\n]\n")
	if err := r.bw.Flush(); err != nil && r.werr == nil {
		r.werr = err
	}
	return r.werr
}

// Track is one execution context's span ring. Exactly one goroutine
// records into a track at a time (its owner); the ring's mutex exists
// for the drain in Flush and for ownership handoffs like the
// off-barrier trainer, and is uncontended in the steady state. All
// methods are safe on a nil track and return immediately.
type Track struct {
	rec  *Recorder
	name string
	tid  int

	mu      sync.Mutex
	buf     []event // ring, preallocated to trackCap
	head    int     // index of the oldest event
	n       int     // live events
	dropped int
	named   bool // thread_name metadata already emitted
}

// Start samples the recorder clock for a span about to begin. On a
// nil track it returns 0 without reading the clock.
func (t *Track) Start() int64 {
	if t == nil {
		return 0
	}
	return t.rec.now()
}

// Span records a completed span from a Start sample to now.
func (t *Track) Span(name string, start int64) {
	if t == nil {
		return
	}
	t.push(event{name: name, ts: start, dur: t.rec.now() - start})
}

// push appends to the ring, overwriting the oldest event when full.
func (t *Track) push(e event) {
	t.mu.Lock()
	if t.n == len(t.buf) {
		t.buf[t.head] = e
		t.head = (t.head + 1) % len(t.buf)
		t.dropped++
	} else {
		t.buf[(t.head+t.n)%len(t.buf)] = e
		t.n++
	}
	t.mu.Unlock()
}

// drainInto writes and clears the ring. Caller holds rec.mu; the
// track lock is taken only long enough to snapshot the ring indices,
// so concurrent recording keeps working during a drain.
func (t *Track) drainInto(r *Recorder) {
	t.mu.Lock()
	if !t.named {
		t.named = true
		t.mu.Unlock()
		r.writeThreadName(t.tid, t.name)
		t.mu.Lock()
	}
	for t.n > 0 {
		e := t.buf[t.head]
		t.head = (t.head + 1) % len(t.buf)
		t.n--
		t.mu.Unlock()
		r.writeEvent(t.tid, &e)
		t.mu.Lock()
	}
	t.mu.Unlock()
}
