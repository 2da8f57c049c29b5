package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// decodeTrace parses a completed trace stream as the Chrome
// trace-event JSON array it claims to be.
func decodeTrace(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, b)
	}
	return events
}

func TestRecorderEmitsValidChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	w := rec.NewTrack("worker")
	o := rec.NewTrack("orchestrator")

	s := w.Start()
	w.Span(SpanSim, s)
	s = o.Start()
	o.Span(SpanBarrier, s)

	rec.Flush()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	events := decodeTrace(t, buf.Bytes())
	byName := map[string]map[string]any{}
	names := []string{}
	for _, e := range events {
		n := e["name"].(string)
		byName[n] = e
		names = append(names, n)
	}
	for _, want := range []string{SpanSim, SpanBarrier, "thread_name"} {
		if byName[want] == nil {
			t.Errorf("trace has no %q event (got %v)", want, names)
		}
	}
	if ph := byName[SpanSim]["ph"]; ph != "X" {
		t.Errorf("span phase = %v, want X", ph)
	}
	if _, ok := byName[SpanSim]["dur"]; !ok {
		t.Error("span event has no dur")
	}
	// Distinct tracks get distinct thread ids.
	if byName[SpanSim]["tid"] == byName[SpanBarrier]["tid"] {
		t.Error("worker and orchestrator spans share a tid")
	}
}

func TestRecorderEmptyTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if events := decodeTrace(t, buf.Bytes()); len(events) != 0 {
		t.Errorf("empty recorder emitted %d events", len(events))
	}
}

func TestNilRecorderAndTrackAreInert(t *testing.T) {
	var rec *Recorder
	tr := rec.NewTrack("anything")
	if tr != nil {
		t.Fatal("nil recorder handed out a non-nil track")
	}
	// All of these must be no-ops, not panics.
	s := tr.Start()
	if s != 0 {
		t.Errorf("nil track Start = %d, want 0", s)
	}
	tr.Span(SpanSim, s)
	rec.Flush()
	if err := rec.Close(); err != nil {
		t.Errorf("nil recorder Close: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Error("nil recorder reports drops")
	}
}

func TestRingOverwritesOldestAndCountsDrops(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	tr := rec.NewTrack("hot")
	const extra = 7
	for i := 0; i < trackCap+extra; i++ {
		tr.Span(SpanSim, tr.Start())
	}
	if got := rec.Dropped(); got != extra {
		t.Fatalf("Dropped = %d, want %d", got, extra)
	}
	rec.Flush()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())
	n := 0
	for _, e := range events {
		if e["name"] == SpanSim {
			n++
		}
	}
	if n != trackCap {
		t.Errorf("drained %d events, want the ring's %d", n, trackCap)
	}
}

func TestFlushMidRunKeepsStreamAppendable(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	tr := rec.NewTrack("w")
	tr.Span(SpanSim, tr.Start())
	rec.Flush()
	tr.Span(SpanGolden, tr.Start())
	rec.Flush()
	if err := rec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events := decodeTrace(t, buf.Bytes())
	// thread_name + two spans.
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(events), events)
	}
}

func TestTrackNameReachesThreadMetadata(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	tr := rec.NewTrack("rocket/worker")
	tr.Span(SpanSim, tr.Start())
	rec.Close()
	if !strings.Contains(buf.String(), `"rocket/worker"`) {
		t.Errorf("trace lacks the track's thread name: %s", buf.String())
	}
}
