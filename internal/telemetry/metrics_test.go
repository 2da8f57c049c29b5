package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"
)

func TestRegistryInstruments(t *testing.T) {
	g := NewRegistry()
	g.Counter("a/count").Add(2)
	g.Counter("a/count").Add(3)
	g.Gauge("b/val").Set(1.5)
	g.Gauge("b/val").Set(2.5) // last value wins
	h := g.Histogram("c/ms", 1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}

	s := g.Snapshot()
	if s.Counters["a/count"] != 5 {
		t.Errorf("counter = %d, want 5", s.Counters["a/count"])
	}
	if s.Gauges["b/val"] != 2.5 {
		t.Errorf("gauge = %g, want 2.5", s.Gauges["b/val"])
	}
	hs := s.Histograms["c/ms"]
	if hs.Count != 4 || hs.Sum != 555.5 {
		t.Errorf("hist count/sum = %d/%g, want 4/555.5", hs.Count, hs.Sum)
	}
	if want := []int64{1, 1, 1, 1}; !reflect.DeepEqual(hs.Buckets, want) {
		t.Errorf("hist buckets = %v, want %v", hs.Buckets, want)
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms); n != 3 {
		t.Errorf("snapshot holds %d series, want a/count, b/val and c/ms only: %+v", n, s)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var g *Registry
	g.Counter("x").Add(1)
	g.Gauge("y").Set(1)
	g.Histogram("z", 1).Observe(1)
	if s := g.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil registry snapshot is non-empty")
	}
}

func TestSnapshotSerializationIsDeterministic(t *testing.T) {
	build := func() *Registry {
		g := NewRegistry()
		// Register in different orders; the snapshot must not care.
		names := []string{"z/last", "a/first", "m/mid"}
		for _, n := range names {
			g.Gauge(n).Set(float64(len(n)))
		}
		return g
	}
	var b1, b2 bytes.Buffer
	if err := WriteSnapshot(&b1, build(), 42); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b2, build(), 42); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Errorf("snapshots differ:\n%s\n%s", b1.String(), b2.String())
	}
	var line map[string]any
	if err := json.Unmarshal(b1.Bytes(), &line); err != nil {
		t.Fatalf("snapshot line is not JSON: %v", err)
	}
	if _, ok := line["gauges"]; !ok {
		t.Error("snapshot line has no gauges object")
	}
}

func TestSnapshotterWritesLines(t *testing.T) {
	g := NewRegistry()
	g.Gauge("fleet/coverage_pct").Set(12.5)
	var buf bytes.Buffer
	s := NewSnapshotter(&buf, g, time.Hour) // only the final Stop line
	if err := s.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := s.Stop(); err != nil { // idempotent
		t.Fatalf("second Stop: %v", err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
		lines++
	}
	if lines < 1 {
		t.Error("snapshotter wrote no lines")
	}
}

func TestHTTPEndpoint(t *testing.T) {
	g := NewRegistry()
	g.Gauge("fleet/tests").Set(64)
	addr, closer, err := Serve("127.0.0.1:0", g)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer closer()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatalf("/metrics is not a snapshot: %v", err)
	}
	if snap.Gauges["fleet/tests"] != 64 {
		t.Errorf("/metrics gauge = %v", snap.Gauges)
	}
	var vars map[string]any
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars lacks Go's own memstats")
	}
	if len(get("/debug/pprof/")) == 0 {
		t.Error("/debug/pprof/ served nothing")
	}
}
