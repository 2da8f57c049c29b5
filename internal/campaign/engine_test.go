package campaign

// Fleet-level tests for the batch execution engine and heterogeneous
// (mixed-design) campaigns.

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
)

func newBoom() rtl.DUT { return boom.New() }

// TestEngineFleetCheckpointMatchesSerial is the acceptance property of
// the execution engine at fleet scope: a fixed-seed run produces a
// byte-identical checkpoint (trajectory, bandit state, per-shard
// clocks and bitmaps) whether shards execute on the engine or on the
// reference oracle.
func TestEngineFleetCheckpointMatchesSerial(t *testing.T) {
	checkpoint := func(serial bool) []byte {
		o, err := New(Config{Shards: 3, BatchSize: 8, Seed: 21, Detect: true, Exec: Exec{serial: serial}},
			newRocket, testArms()...)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer o.Close()
		o.RunRounds(4)
		var buf bytes.Buffer
		if err := o.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return buf.Bytes()
	}
	eng := checkpoint(false)
	ser := checkpoint(true)
	if !bytes.Equal(eng, ser) {
		t.Errorf("engine checkpoint differs from serial checkpoint:\nengine: %s\nserial: %s", eng, ser)
	}
}

// withProcs sets GOMAXPROCS for the rest of the test. The pool is sized
// from it (engine.SpareWorkers), so this is how a test chooses between
// a fleet with spare-core workers and one without — the same way an
// operator does, by the machine it runs on.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestShardEnginesUnderConcurrency runs a fleet with detection on and
// two more cores than shards — committers and pool workers racing for
// the same rounds' entries, the maximum-concurrency shape — mainly for
// the -race CI job.
func TestShardEnginesUnderConcurrency(t *testing.T) {
	withProcs(t, 3+2)
	o, err := New(Config{Shards: 3, BatchSize: 8, Seed: 23, Detect: true},
		newRocket, testArms()...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	o.RunRounds(3)
	if o.Tests() != 3*3*8 {
		t.Errorf("fleet ran %d tests, want %d", o.Tests(), 3*3*8)
	}
	if o.Coverage() <= 0 {
		t.Error("no coverage accumulated")
	}
}

// TestMixedFleetTracksPerDesignCoverage: a Rocket+BOOM fleet keeps one
// merged bitmap per design, aggregates fleet coverage across both, and
// reports both designs.
func TestMixedFleetTracksPerDesignCoverage(t *testing.T) {
	o, err := NewMixed(Config{Shards: 4, BatchSize: 8, Seed: 25},
		[]func() rtl.DUT{newRocket, newBoom}, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer o.Close()
	o.RunRounds(4)

	rep := o.Report()
	if len(rep.Designs) != 2 || rep.Designs[0].Name != "boom" || rep.Designs[1].Name != "rocket" {
		t.Fatalf("report designs = %+v, want [boom rocket]", rep.Designs)
	}
	for _, d := range rep.Designs {
		if d.Coverage <= 0 {
			t.Errorf("%s merged coverage %.2f, want > 0", d.Name, d.Coverage)
		}
	}
	if c := o.Coverage(); c <= 0 || c >= 100 {
		t.Errorf("aggregate coverage %.2f out of range", c)
	}
	if rep.Designs[0].Shards != 2 || rep.Designs[1].Shards != 2 {
		t.Errorf("report designs = %+v, want two designs with two shards each", rep.Designs)
	}
}

// TestMixedFleetCheckpointResume: pausing and resuming a heterogeneous
// fleet reproduces the uninterrupted trajectory bit-for-bit, and
// resuming with the wrong shard-to-design mapping fails loudly.
func TestMixedFleetCheckpointResume(t *testing.T) {
	duts := []func() rtl.DUT{newRocket, newBoom}
	cfg := Config{Shards: 4, BatchSize: 8, Seed: 27}

	full, err := NewMixed(cfg, duts, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer full.Close()
	full.RunRounds(6)
	want := full.Trajectory()

	half, err := NewMixed(cfg, duts, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer half.Close()
	half.RunRounds(3)
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	ckpt := buf.Bytes()

	resumed, err := ResumeMixed(bytes.NewReader(ckpt), duts, testArms()...)
	if err != nil {
		t.Fatalf("ResumeMixed: %v", err)
	}
	defer resumed.Close()
	resumed.RunRounds(3)
	got := resumed.Trajectory()
	if len(got) != len(want) {
		t.Fatalf("trajectory has %d points after resume, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d differs after resume: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// Wrong design order must be rejected before any state is restored.
	if _, err := ResumeMixed(bytes.NewReader(ckpt), []func() rtl.DUT{newBoom, newRocket}, testArms()...); err == nil {
		t.Error("ResumeMixed accepted a swapped shard-to-design mapping")
	}
	// A homogeneous resume of a mixed checkpoint must fail too.
	if _, err := ResumeMixed(bytes.NewReader(ckpt), []func() rtl.DUT{newRocket}, testArms()...); err == nil {
		t.Error("ResumeMixed accepted a homogeneous fleet for a mixed checkpoint")
	}
}

// TestResumeReportsVersionMismatchCleanly: a v1-era checkpoint (whose
// Bins field was an int, not a map) must fail with the version message,
// not a raw JSON type error from the layout difference.
func TestResumeReportsVersionMismatchCleanly(t *testing.T) {
	v1 := []byte(`{"Version":1,"Config":{},"Round":3,"Tests":24,"Bins":1234,"Arms":[],"Global":[0]}`)
	_, err := Resume(bytes.NewReader(v1), newRocket, testArms()...)
	if err == nil || !strings.Contains(err.Error(), "version 1, want 4") {
		t.Errorf("v1 checkpoint: err = %v, want a version-mismatch message", err)
	}
}
