package campaign

// Tests for the observability plane: the flight-recorder trace an
// instrumented fleet emits, the metrics registry the barrier updates,
// and both under resume.

import (
	"bytes"
	"encoding/json"
	"testing"

	"chatfuzz/internal/rtl"
	"chatfuzz/internal/telemetry"
)

// traceNames decodes a completed Chrome trace and returns the set of
// event names it contains.
func traceNames(t *testing.T, b []byte) map[string]bool {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	names := make(map[string]bool, len(events))
	for _, e := range events {
		if n, ok := e["name"].(string); ok {
			names[n] = true
		}
	}
	return names
}

// TestTelemetryTraceCoversEveryLayer: a learning fleet must leave
// spans from every instrumented layer in its trace — generation and
// commit from the shard fuzzers, build/sim/golden from the engines'
// executors, round and barrier from the orchestrator, train from the
// off-barrier learner.
func TestTelemetryTraceCoversEveryLayer(t *testing.T) {
	withProcs(t, 4+3)
	var buf bytes.Buffer
	cfg := Config{
		Shards: 4, BatchSize: 4, Seed: 41, Detect: true,
		Exec: Exec{Telemetry: telemetry.NewRecorder(&buf)},
	}
	o, err := NewMixed(cfg, []func() rtl.DUT{newRocket, newBoom}, learnArms(learnPipeline())...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	if err := o.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	o.Close() // joins off-barrier training, so its train span is recorded
	if err := cfg.Telemetry.Close(); err != nil {
		t.Fatalf("recorder Close: %v", err)
	}

	names := traceNames(t, buf.Bytes())
	for _, want := range []string{
		telemetry.SpanGenerate, telemetry.SpanBuild, telemetry.SpanSim,
		telemetry.SpanGolden, telemetry.SpanCommit,
		telemetry.SpanRound, telemetry.SpanBarrier, telemetry.SpanTrain,
	} {
		if !names[want] {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
}

// TestMetricsMatchOrchestratorState: the registry's post-run gauges
// must agree with the orchestrator's own accessors — the metrics plane
// observes, it does not recompute — and a registry alone times the
// barrier.
func TestMetricsMatchOrchestratorState(t *testing.T) {
	withProcs(t, 4+3)
	reg := telemetry.NewRegistry()
	cfg := Config{
		Shards: 4, BatchSize: 4, Seed: 43, Detect: true,
		Exec: Exec{Metrics: reg},
	}
	o, err := NewMixed(cfg, []func() rtl.DUT{newRocket, newBoom}, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer o.Close()
	if err := o.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}

	s := reg.Snapshot()
	check := func(name string, want float64) {
		t.Helper()
		if got := s.Gauges[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	check("fleet/rounds", float64(o.Rounds()))
	check("fleet/tests", float64(o.Tests()))
	check("fleet/coverage_pct", o.Coverage())
	for _, d := range o.Designs() {
		check("coverage/"+d+"_pct", o.DesignCoverage(d))
	}
	rep := o.Report()
	for _, a := range rep.Arms {
		check("arm/"+a.Name+"/pulls", float64(a.Pulls))
		check("arm/"+a.Name+"/mean_reward", a.MeanReward)
	}
	st := o.pool.Stats()
	check("pool/workers", 3)
	check("pool/submitted", float64(st.Submitted))
	check("pool/executed", float64(st.Executed))
	// The registry is the only observer, and the wait histograms still
	// have one sample per round.
	for _, h := range []string{"probe/sim_wait_ms", "probe/learn_wait_ms", "probe/barrier_wait_ms", "probe/spread_ms"} {
		if got := s.Histograms[h].Count; got != int64(o.Rounds()) {
			t.Errorf("%s has %d samples, want %d", h, got, o.Rounds())
		}
	}
	if s.Counters["coverage/new_bins"] <= 0 {
		t.Error("coverage/new_bins counter never advanced")
	}
}

// TestResumeHonoursExec: Resume* takes the same Exec as New*. A fleet
// resumed under a recorder and a registry produces spans and metrics,
// barrier waits included, for the rounds it runs after the resume, and —
// observation being execution-only — ends on the checkpoint bytes of
// the same fleet run unobserved and uninterrupted.
func TestResumeHonoursExec(t *testing.T) {
	duts := []func() rtl.DUT{newRocket, newBoom}
	cfg := Config{Shards: 4, BatchSize: 4, RoundBatches: 2, Seed: 49, Detect: true}
	checkpoint := func(o *Orchestrator) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := o.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return buf.Bytes()
	}

	full, err := NewMixed(cfg, duts, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer full.Close()
	if err := full.RunRounds(4); err != nil {
		t.Fatalf("full run: %v", err)
	}
	want := checkpoint(full)

	half, err := NewMixed(cfg, duts, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	if err := half.RunRounds(2); err != nil {
		t.Fatalf("half run: %v", err)
	}
	paused := checkpoint(half)
	half.Close()

	var trace bytes.Buffer
	ex := Exec{
		Telemetry: telemetry.NewRecorder(&trace),
		Metrics:   telemetry.NewRegistry(),
	}
	resumed, err := ResumeExec(bytes.NewReader(paused), ex, duts, testArms()...)
	if err != nil {
		t.Fatalf("ResumeExec: %v", err)
	}
	if err := resumed.RunRounds(2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := checkpoint(resumed)
	resumed.Close()
	if err := ex.Telemetry.Close(); err != nil {
		t.Fatalf("recorder Close: %v", err)
	}

	if !bytes.Equal(got, want) {
		t.Error("observed resumed fleet's checkpoint differs from the unobserved uninterrupted one")
	}
	names := traceNames(t, trace.Bytes())
	for _, span := range []string{telemetry.SpanGenerate, telemetry.SpanSim, telemetry.SpanCommit, telemetry.SpanRound, telemetry.SpanBarrier} {
		if !names[span] {
			t.Errorf("resumed fleet's trace has no %q span", span)
		}
	}
	s := ex.Metrics.Snapshot()
	if got := s.Gauges["fleet/rounds"]; got != 4 {
		t.Errorf("fleet/rounds = %v after resume, want 4", got)
	}
	if got := s.Histograms["probe/sim_wait_ms"].Count; got != 2 {
		t.Errorf("probe/sim_wait_ms has %d samples after resume, want 2", got)
	}
	if resumed.Cfg.Exec != ex {
		t.Errorf("resumed fleet runs with Exec %+v, want the one it was given: %+v", resumed.Cfg.Exec, ex)
	}
}
