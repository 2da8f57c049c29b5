//go:build linux

package main

import (
	"io"
	"math"
	"regexp"
	"strings"
	"testing"

	"chatfuzz/internal/core"
	"chatfuzz/internal/rtl/rocket"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON holds BENCHMARK.json to the limits of its contract
// and to the names and units the program emits.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program; the contract allows 2 to 8", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the contract allows 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	seen := map[string]bool{}
	check := func(kind string, listed []specMetric, emitted map[string]string) {
		if len(listed) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(emitted))
		}
		for _, sm := range listed {
			if !nameRE.MatchString(sm.Name) || seen[sm.Name] {
				t.Errorf("%s metric %q: malformed or duplicate name", kind, sm.Name)
			}
			seen[sm.Name] = true
			if !unitRE.MatchString(sm.Unit) || emitted[sm.Name] != sm.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the program", kind, sm.Name, sm.Unit, emitted[sm.Name])
			}
			if sm.Better != "higher" && sm.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, sm.Name, sm.Better)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
	for _, sm := range spec.EndToEnd {
		if sm.Bound <= 0 || sm.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", sm.Name, sm.Bound)
		}
		if sm.Name == "setup_s" && (sm.Unit != "s" || sm.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better")
		}
	}
	for _, name := range simulated {
		if _, ok := perLayer[name]; !ok {
			t.Errorf("simulated statistic %s is not a per-layer metric", name)
		}
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestSmoke runs every workload at -quick budgets, untraced and
// traced, and checks that each run passes its own correctness checks
// and emits exactly the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	var pipe *core.Pipeline
	for _, w := range workloads {
		if w.needsPipeline() {
			if testing.Short() {
				continue
			}
			if pipe == nil {
				// One training for the four LM runs.
				pipe = core.NewPipeline(core.TestPipelineConfig())
				pipe.Run(rocket.New())
			}
		}
		for _, traced := range []bool{false, true} {
			r := &run{w: w, seed: 1, seconds: 0.2, quick: true, outDir: t.TempDir(), log: io.Discard}
			if w.needsPipeline() {
				r.pipe = pipe
			}
			res, err := r.measure(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d operations failed: %v", w.name, traced, res.Correct, res.Failed, res.Attempted, r.failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, sm := range want {
				got, ok := res.Metrics[sm.Name]
				if !ok || got.Unit != sm.Unit {
					t.Errorf("%s traced=%v: metric %s: emitted=%v with unit %q, want %q", w.name, traced, sm.Name, ok, got.Unit, sm.Unit)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.name, traced, sm.Name, got.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{0.99 * c, c, 1.01 * c, c, c} }
	wide := func(c float64) []float64 { return []float64{0.7 * c, 0.9 * c, c, 1.1 * c, 1.3 * c} }
	higher := specMetric{Name: "tests_per_s", Better: "higher", Bound: 0.1}
	lower := specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}
	for _, c := range []struct {
		sm   specMetric
		a, b []float64
		want string
	}{
		{higher, tight(100), tight(101), "within"},
		{higher, tight(100), tight(120), "better"},
		{higher, tight(100), tight(85), "worse"},
		{lower, tight(100), tight(85), "better"},
		{lower, tight(100), tight(115), "worse"},
		{higher, wide(100), wide(95), "unresolved"},
		{higher, wide(100), wide(300), "better"},
		{higher, nil, tight(1), "missing"},
	} {
		if got := verdict(c.sm, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.sm.Better, c.a, c.b, got, c.want)
		}
	}
}
