//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// endToEnd and perLayer name every metric the benchmark emits, with
// its unit: a --trace 0 run prints exactly the first set, a --trace 1
// run exactly the second. BENCHMARK.json repeats the names (and adds
// direction and bounds); the smoke test keeps the two in step.
//
// Time is host wall-clock unless a name says virt. A per-layer value
// of 0 means the workload does not exercise that layer (no LM arm on
// mutate_fleet, no farm under the fleets).
var endToEnd = map[string]string{
	"tests_per_s":          "tests/s",
	"wall_s_per_virt_hour": "s/virt_h",
	"coverage_pct":         "%",
	"jobs_per_s":           "jobs/s",
	"job_latency_p50_s":    "s",
	"peak_rss_mb":          "MB",
	"setup_s":              "s",
}

var perLayer = map[string]string{
	// Leaf replay: one goroutine, one timed call per program, median.
	"thehuzz.generate_us_per_prog":    "us",
	"randinst.generate_us_per_prog":   "us",
	"randfuzz.generate_us_per_prog":   "us",
	"nn.generate_us_per_prog":         "us",
	"nn.generate_tokens_per_s":        "tokens/s",
	"prog.build_us_per_prog":          "us",
	"rocket.run_us_per_test":          "us",
	"rocket.sim_minsts_per_s":         "Minst/s",
	"boom.run_us_per_test":            "us",
	"boom.sim_minsts_per_s":           "Minst/s",
	"iss.run_us_per_test":             "us",
	"iss.sim_minsts_per_s":            "Minst/s",
	"engine.golden_us_per_test":       "us",
	"mismatch.analyze_us_per_test":    "us",
	"cov.score_us_per_test":           "us",
	"cov.merge_us_per_merge":          "us",
	"ppo.step_ms_per_batch":           "ms",
	"fleetlearn.barrier_ms_per_round": "ms",
	"campaign.checkpoint_encode_ms":   "ms",
	"campaign.checkpoint_bytes":       "bytes",
	"campaign.resume_ms":              "ms",
	"atomicio.write_ms":               "ms",
	// In situ, from the traced run.
	"rocket.busy_s":         "s",
	"rocket.runs":           "count",
	"boom.busy_s":           "s",
	"boom.runs":             "count",
	"campaign.round_p50_ms": "ms",
	"campaign.round_p99_ms": "ms",
	"campaign.rounds":       "count",
	// Simulated statistics: these repeat exactly for a seed.
	"engine.snap_hits":              "count",
	"engine.snap_misses":            "count",
	"engine.snap_hit_pct":           "%",
	"campaign.pulls.thehuzz":        "count",
	"campaign.pulls.randinst":       "count",
	"campaign.pulls.randfuzz":       "count",
	"campaign.pulls.chatfuzz":       "count",
	"campaign.pulls.chatfuzz-learn": "count",
	"mismatch.raw":                  "count",
	"mismatch.clusters":             "count",
	"vtime.virt_hours":              "virt_h",
	"campaign.tests":                "count",
	"campaign.checkpoint_sha48":     "count",
	// Host, over the timed region of the untraced repeat.
	"host.cpu_user_s":      "s",
	"host.cpu_sys_s":       "s",
	"host.cores_busy":      "cores",
	"host.cpu_us_per_test": "us",
	"host.gc_pause_ms":     "ms",
	"host.alloc_mb":        "MB",
	// Attribution: leaf cost x calls as a share of process CPU time.
	"share.generate_pct":     "%",
	"share.build_pct":        "%",
	"share.sim_pct":          "%",
	"share.golden_pct":       "%",
	"share.mismatch_pct":     "%",
	"share.cov_pct":          "%",
	"share.train_pct":        "%",
	"share.unattributed_pct": "%",
	// Farm.
	"farm.submit_p50_ms":              "ms",
	"farm.trajectory_p50_ms":          "ms",
	"farm.reopen_ms":                  "ms",
	"campaign.checkpoint_file_p50_ms": "ms",
	"farm.checkpoint_share_pct":       "%",
	"farm.overhead_pct":               "%",
	// Setup.
	"setup.corpus_tok_s":    "s",
	"setup.pretrain_s":      "s",
	"setup.cleanup_s":       "s",
	"setup.coverage_tune_s": "s",
	"setup.warmup_s":        "s",
	// Trace.
	"trace.spans":        "count",
	"trace.overhead_pct": "%",
}

// simulated lists the per-layer metrics that are simulated statistics:
// a deterministic function of the seed, compared exactly by `bench
// compare` instead of against a bound.
var simulated = []string{
	"engine.snap_hits", "engine.snap_misses",
	"campaign.pulls.thehuzz", "campaign.pulls.randinst", "campaign.pulls.randfuzz",
	"campaign.pulls.chatfuzz", "campaign.pulls.chatfuzz-learn",
	"mismatch.raw", "mismatch.clusters", "vtime.virt_hours", "campaign.tests",
	"campaign.checkpoint_bytes", "campaign.checkpoint_sha48",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet collects one run's metrics against a fixed name → unit
// table, so a run can neither invent a name nor forget one.
type metricSet struct {
	units map[string]string
	vals  map[string]float64
}

func newMetricSet(units map[string]string) *metricSet {
	return &metricSet{units: units, vals: make(map[string]float64, len(units))}
}

func (m *metricSet) set(name string, v float64) {
	if _, ok := m.units[name]; !ok {
		panic("bench: metric " + name + " is not declared in spec.go")
	}
	m.vals[name] = v
}

// setMedians sets every metric that the given sets carry to its median
// over them.
func (m *metricSet) setMedians(sets []*metricSet) {
	for name := range sets[0].vals {
		v := make([]float64, len(sets))
		for i, s := range sets {
			v[i] = s.vals[name]
		}
		m.set(name, median(v))
	}
}

// result fills every declared name (unset ones read 0: layer not
// exercised) and prints the table to w.
func (m *metricSet) result(w io.Writer, attempted, failed int) result {
	r := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metric, len(m.units))}
	names := make([]string, 0, len(m.units))
	for n := range m.units {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.Metrics[n] = metric{Value: m.vals[n], Unit: m.units[n]}
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.vals[n], m.units[n])
	}
	return r
}

// specFile is the benchmark's definition, at the root of the
// repository, where `go run ./bench` is run from.
const specFile = "BENCHMARK.json"

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
