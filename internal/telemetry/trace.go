package telemetry

import "strconv"

// Chrome trace-event serialization: the recorder streams one JSON
// array of trace events in the "JSON Array Format" both Perfetto and
// chrome://tracing load directly. Spans are complete events
// (ph "X": ts + dur), and each track contributes one "M" thread_name
// metadata record the first time it drains. All events share pid 1 —
// the fleet is one process; tracks are the threads.
//
// Events are hand-serialized: the writers run inside Flush with small
// fixed shapes, and strconv-based encoding avoids per-event
// reflection and map allocation in encoding/json.

// write appends raw bytes to the trace stream, opening the JSON array
// on first use. Caller holds r.mu.
func (r *Recorder) write(s string) {
	if !r.opened && s != "[" {
		r.opened = true
		if _, err := r.bw.WriteString("["); err != nil && r.werr == nil {
			r.werr = err
		}
	} else if s == "[" {
		r.opened = true
	}
	if _, err := r.bw.WriteString(s); err != nil && r.werr == nil {
		r.werr = err
	}
}

// sep writes the between-events separator, keeping the array valid
// JSON (comma before every event but the first).
func (r *Recorder) sep() {
	if r.first {
		r.first = false
		r.write("\n")
		return
	}
	r.write(",\n")
}

// writeEvent serializes one drained event. Caller holds r.mu.
func (r *Recorder) writeEvent(tid int, e *event) {
	r.sep()
	var b []byte
	b = append(b, `{"name":`...)
	b = strconv.AppendQuote(b, e.name)
	b = append(b, `,"ph":"X","pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, e.ts, 10)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, e.dur, 10)
	b = append(b, '}')
	if _, err := r.bw.Write(b); err != nil && r.werr == nil {
		r.werr = err
	}
}

// writeThreadName emits a track's thread_name metadata record, which
// is what Perfetto shows as the lane label. Caller holds r.mu.
func (r *Recorder) writeThreadName(tid int, name string) {
	r.sep()
	var b []byte
	b = append(b, `{"name":"thread_name","ph":"M","pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"args":{"name":`...)
	b = strconv.AppendQuote(b, name)
	b = append(b, `}}`...)
	if _, err := r.bw.Write(b); err != nil && r.werr == nil {
		r.werr = err
	}
}
