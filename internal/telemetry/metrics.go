package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the fleet's metrics plane: named counters, gauges and
// histograms updated by the instrumented layers and read out as
// deterministic snapshots (sorted series names, so two snapshots of
// equal state serialize to equal bytes). Like the flight recorder it
// is execution-only — never checkpointed, never read by scheduling
// code — and nil-safe: a nil *Registry hands out nil instruments
// whose methods return immediately.
//
// Series names are slash-scoped, e.g. "fleet/coverage_pct",
// "arm/chatfuzz-learn/pulls", "pool/executed"; README.md's
// Observability section tables the names the campaign layer emits.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named monotonic counter, creating it on first
// use. Nil registries return a nil (inert) counter.
func (g *Registry) Counter(name string) *Counter {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters[name]
	if c == nil {
		c = &Counter{}
		g.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil
// registries return a nil (inert) gauge.
func (g *Registry) Gauge(name string) *Gauge {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ga := g.gauges[name]
	if ga == nil {
		ga = &Gauge{}
		g.gauges[name] = ga
	}
	return ga
}

// Histogram returns the named histogram, creating it with the given
// finite upper bounds on first use (later calls reuse the existing
// bounds). Nil registries return a nil (inert) histogram.
func (g *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	h := g.hists[name]
	if h == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		g.hists[name] = h
	}
	return h
}

// Counter is a monotonic int64 counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. No-op on nil.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 last-value gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge value. No-op on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (finite upper
// bounds plus an implicit overflow bucket) and tracks count and sum.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Observe records one sample. No-op on nil.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is one histogram's frozen state. Buckets holds
// cumulative-free per-bucket counts in bound order; the entry beyond
// the last bound is the overflow bucket.
type HistogramSnapshot struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []int64   `json:"buckets,omitempty"`
}

// Snapshot is a frozen, serialization-ready view of a registry. Maps
// serialize with sorted keys under encoding/json, so equal registry
// state yields byte-equal snapshots.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot freezes the registry's current values. Nil registries
// return the zero snapshot.
func (g *Registry) Snapshot() Snapshot {
	if g == nil {
		return Snapshot{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Snapshot{}
	if len(g.counters) > 0 {
		s.Counters = make(map[string]int64, len(g.counters))
		// Verbatim map→map copy; iteration order cannot reach the result
		// (and the JSON encoder sorts keys when it serializes).
		//lint:allow mapiter order-insensitive map copy
		for name, c := range g.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(g.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(g.gauges))
		//lint:allow mapiter order-insensitive map copy
		for name, ga := range g.gauges {
			s.Gauges[name] = ga.Value()
		}
	}
	if len(g.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(g.hists))
		//lint:allow mapiter order-insensitive map copy
		for name, h := range g.hists {
			h.mu.Lock()
			hs := HistogramSnapshot{
				Count:   h.n,
				Sum:     h.sum,
				Bounds:  append([]float64(nil), h.bounds...),
				Buckets: append([]int64(nil), h.counts...),
			}
			h.mu.Unlock()
			s.Histograms[name] = hs
		}
	}
	return s
}
