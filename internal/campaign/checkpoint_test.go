package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/rtl"
)

// checkAppendCheckpoint checkpoints the paused fleet twice, which must
// write the same bytes, and returns them. Decoding them and encoding the
// wire structs again is the identity: resume reads back every byte.
func checkAppendCheckpoint(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	var first, second bytes.Buffer
	if err := o.Checkpoint(&first); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := o.Checkpoint(&second); err != nil {
		t.Fatalf("Checkpoint again: %v", err)
	}
	got, again := first.Bytes(), second.Bytes()
	if !bytes.Equal(got, again) {
		at := firstDiff(got, again)
		t.Fatalf("two checkpoints of one paused fleet differ at byte %d of %d/%d:\nfirst …%s\nthen  …%s",
			at, len(got), len(again), around(got, at), around(again, at))
	}
	cf, err := decodeCheckpoint(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&cf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), got) {
		t.Fatal("decode then encode is not the identity on the checkpoint")
	}
	return got
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func around(b []byte, i int) []byte { return b[max(0, i-40):min(len(b), i+40)] }

// farmJobsFleet is the fleet a bench farm_jobs job runs: rocket+boom,
// 4 shards of 16-test batches, detection on, the three mutation arms
// at body 24 — 200 rounds to its 12 800-test budget.
func farmJobsFleet(tb testing.TB) *Orchestrator {
	tb.Helper()
	o, err := NewMixed(Config{Shards: 4, BatchSize: 16, Seed: 1, Detect: true}, farmJobsDUTs, farmJobsArms()...)
	if err != nil {
		tb.Fatalf("NewMixed: %v", err)
	}
	return o
}

var farmJobsDUTs = []func() rtl.DUT{newRocket, newBoom}

func farmJobsArms() []ArmSpec { return []ArmSpec{TheHuzzArm(24), RandInstArm(24), RandFuzzArm(24)} }

// resumeFarmJob resumes farmJobsFleet from its checkpoint bytes.
func resumeFarmJob(t *testing.T, ckpt []byte) *Orchestrator {
	t.Helper()
	r, err := ResumeMixed(bytes.NewReader(ckpt), farmJobsDUTs, farmJobsArms()...)
	if err != nil {
		t.Fatalf("ResumeMixed: %v", err)
	}
	return r
}

// TestAppendCheckpointMatchesEncodingJSON: the encoding/json writer is
// stable and reads back to itself (checkAppendCheckpoint) on every shape
// of fleet state the format has a spelling for, and the golden cells
// still write their pinned bytes.
func TestAppendCheckpointMatchesEncodingJSON(t *testing.T) {
	for _, c := range goldenCells {
		t.Run(fmt.Sprintf("golden/shards=%d/mixed=%v/learn=%v", c.shards, c.mixed, c.learn), func(t *testing.T) {
			duts := []func() rtl.DUT{newRocket}
			if c.mixed {
				duts = append(duts, newBoom)
			}
			arms := testArms()
			if c.learn {
				arms = learnArms(learnPipeline())
			}
			o, err := NewMixed(Config{Shards: c.shards, BatchSize: 4, RoundBatches: 2, Seed: 33, Detect: true}, duts, arms...)
			if err != nil {
				t.Fatalf("NewMixed: %v", err)
			}
			defer o.Close()
			if err := o.RunRounds(3); err != nil {
				t.Fatalf("RunRounds: %v", err)
			}
			if got := sha256Hex(checkAppendCheckpoint(t, o)); got != c.sha {
				t.Errorf("checkpoint sha256 = %s, want the pinned %s", got, c.sha)
			}
		})
	}

	t.Run("before the first round", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5, Detect: true})
		defer o.Close()
		got := checkAppendCheckpoint(t, o)
		for _, want := range []string{`"Merged":null`, `"Records":null`} {
			if !bytes.Contains(got, []byte(want)) {
				t.Errorf("a fleet that has not run carries no %s", want)
			}
		}
		if bytes.Contains(got, []byte(`"Pool"`)) {
			t.Error("a fleet that has not run wrote its empty TheHuzz pool")
		}
	})

	t.Run("detection off", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
		defer o.Close()
		if err := o.RunRounds(3); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		if got := checkAppendCheckpoint(t, o); bytes.Contains(got, []byte(`"Det"`)) {
			t.Error("a fleet without detection wrote a Det key")
		}
	})

	t.Run("stateless arms", func(t *testing.T) {
		o, err := New(Config{Shards: 2, BatchSize: 8, Seed: 5, Detect: true}, newRocket, RandInstArm(testBody), RandFuzzArm(testBody))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer o.Close()
		if err := o.RunRounds(2); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		if got := checkAppendCheckpoint(t, o); bytes.Contains(got, []byte(`"Pool"`)) {
			t.Error("a fleet without a thehuzz arm wrote a TheHuzz pool")
		}
	})

	t.Run("learning fleet", func(t *testing.T) {
		o, err := New(Config{Shards: 2, BatchSize: 4, Seed: 47}, newRocket, LearningLLMArm(learnPipeline()))
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer o.Close()
		if got := checkAppendCheckpoint(t, o); !bytes.Contains(got, []byte(`"Learn"`)) || bytes.Contains(got, []byte(`"Staged"`)) {
			t.Error("an untrained learning fleet should carry published weights and no staged half")
		}
		if err := o.RunRounds(2); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		if got := checkAppendCheckpoint(t, o); !bytes.Contains(got, []byte(`"Staged"`)) {
			t.Error("mid-lag checkpoint carries no staged half")
		}
	})

	t.Run("farm_jobs shape", func(t *testing.T) {
		o := farmJobsFleet(t)
		defer o.Close()
		for _, rounds := range []int{1, 10, 200} {
			if err := o.RunRounds(rounds - o.Rounds()); err != nil {
				t.Fatalf("RunRounds: %v", err)
			}
			checkAppendCheckpoint(t, o)
		}
		if o.Tests() != 12800 {
			t.Errorf("200 rounds committed %d tests, want the farm job's 12800", o.Tests())
		}
	})

	// A resumed fleet's generators adopt the one decoded pool, so they
	// share one state, as after a barrier; the checkpoint writes it once
	// and carries no per-shard pool or coverage.
	t.Run("farm_jobs shape resumed", func(t *testing.T) {
		o := farmJobsFleet(t)
		defer o.Close()
		if err := o.RunRounds(10); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		want := checkAppendCheckpoint(t, o)
		shared := len(huzzGens(o)) - 1
		if n := sameHuzzStates(o); n != shared {
			t.Fatalf("after a barrier %d TheHuzz arms share an earlier one's state, want %d", n, shared)
		}
		if n := bytes.Count(want, []byte(`"Pool"`)); n != 1 || bytes.Contains(want, []byte(`"Cov"`)) || bytes.Contains(want, []byte(`"Arms":[null`)) {
			t.Fatalf("the checkpoint writes %d pools, or per-shard coverage or arm state", n)
		}
		r := resumeFarmJob(t, want)
		defer r.Close()
		if n := sameHuzzStates(r); n != shared {
			t.Fatalf("%d TheHuzz arms of a resumed fleet share an earlier one's state, want %d", n, shared)
		}
		if got := checkAppendCheckpoint(t, r); !bytes.Equal(got, want) {
			t.Fatal("the resumed fleet checkpoints differently from the fleet it resumed")
		}
		if err := r.RunRounds(1); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		checkAppendCheckpoint(t, r)
	})

	// Pools adopted from one slice are the same pool, and the round is
	// not part of the pool; adopted as a barrier does, at the fleet's
	// round, the checkpoint writes the pool once.
	t.Run("adopted pool, two rounds", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 3, BatchSize: 8, Seed: 5, Detect: true})
		defer o.Close()
		if err := o.RunRounds(2); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		gens := huzzGens(o)
		pool := clonePool(gens[0].State().Pool)
		if len(pool) == 0 {
			t.Fatal("no pool to adopt")
		}
		gens[0].AdoptPool(7, pool)
		gens[1].AdoptPool(8, pool)
		gens[2].AdoptPool(7, pool)
		if !gens[0].SamePool(gens[1]) || sameHuzzState(gens[0], gens[1]) || !sameHuzzState(gens[0], gens[2]) {
			t.Fatal("SamePool/sameHuzzState do not see the adopted pools as built")
		}
		for _, g := range gens {
			g.AdoptPool(o.Rounds(), pool)
		}
		cf, err := decodeCheckpoint(bytes.NewReader(checkAppendCheckpoint(t, o)))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(cf.Pool, pool) {
			t.Fatal("the checkpoint does not hold the adopted pool")
		}
	})
}

// TestAppendCheckpointEveryRound: every round of a farm-job fleet
// checkpoints stably (checkAppendCheckpoint), with the pools the shards
// share after each barrier and the detector records as they grow. A fleet
// resumed from a mid-run round's bytes must write the uninterrupted
// fleet's bytes at every later round.
func TestAppendCheckpointEveryRound(t *testing.T) {
	const rounds, resumeAt = 60, 25
	o := farmJobsFleet(t)
	defer o.Close()
	var resumed *Orchestrator
	for round := 1; round <= rounds; round++ {
		if err := o.RunRound(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want := checkAppendCheckpoint(t, o)
		if resumed != nil {
			if err := resumed.RunRound(); err != nil {
				t.Fatalf("resumed, round %d: %v", round, err)
			}
			if got := checkAppendCheckpoint(t, resumed); !bytes.Equal(got, want) {
				at := firstDiff(got, want)
				t.Fatalf("round %d: the fleet resumed at round %d checkpoints differently at byte %d:\n got …%s\nwant …%s",
					round, resumeAt, at, around(got, at), around(want, at))
			}
		}
		if round == resumeAt {
			resumed = resumeFarmJob(t, want)
			defer resumed.Close()
		}
	}
	if sameHuzzStates(o) == 0 || o.Shard(0).Det.NovelSignatures() == 0 {
		t.Fatal("the fleet shares no TheHuzz state or found no mismatch: shared pools or detector records go unexercised")
	}
}

// sameHuzzStates counts the TheHuzz generators whose state equals an
// earlier shard's (sameHuzzState).
func sameHuzzStates(o *Orchestrator) int {
	gens, n := huzzGens(o), 0
	for i, g := range gens {
		if slices.ContainsFunc(gens[:i], func(h *thehuzz.Gen) bool { return sameHuzzState(g, h) }) {
			n++
		}
	}
	return n
}

// sameHuzzState reports whether g and h hold one state: the same round
// and the same pool by body identity (thehuzz.Gen.SamePool), as every
// shard's generator does after a barrier.
func sameHuzzState(g, h *thehuzz.Gen) bool {
	return g.State().Round == h.State().Round && g.SamePool(h)
}

// TestCheckpointMarshalErrorSurfaces: a value encoding/json refuses is
// an error from every writer, not a truncated file.
func TestCheckpointMarshalErrorSurfaces(t *testing.T) {
	o := mustNew(t, Config{Shards: 1, BatchSize: 8, Seed: 5})
	defer o.Close()
	o.bandit.T = math.Inf(1)
	if err := o.Checkpoint(io.Discard); err == nil || !strings.Contains(err.Error(), "encode checkpoint") {
		t.Errorf("Checkpoint of an unencodable fleet: %v", err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := o.CheckpointFile(path); err == nil {
		t.Error("CheckpointFile of an unencodable fleet succeeded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a failed encode left %s behind (%v)", path, err)
	}
}

// BenchmarkCheckpoint times the checkpoint encoder on the farm_jobs
// fleet. per-round encodes after each of a fresh fleet's 200 rounds —
// the most a CheckpointEvery 1 job commits, which it reaches only when
// every round takes 100 ms or more — and only the encodes are timed;
// ns/round is the mean encode. Each of its ops simulates 200 rounds
// untimed, so give it a count (-benchtime 5x): the default one second
// of encodes takes tens of seconds of simulation. encode encodes the
// finished fleet again and again, as the ledger's
// campaign.checkpoint_encode_ms does.
func BenchmarkCheckpoint(b *testing.B) {
	const rounds = 200
	b.Run("per-round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			o := farmJobsFleet(b)
			for r := 0; r < rounds; r++ {
				b.StopTimer()
				if err := o.RunRound(); err != nil {
					b.Fatalf("RunRound: %v", err)
				}
				b.StartTimer()
				if err := o.Checkpoint(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			o.Close()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/round")
	})

	o := farmJobsFleet(b)
	defer o.Close()
	if err := o.RunRounds(rounds); err != nil {
		b.Fatalf("RunRounds: %v", err)
	}
	var ckpt bytes.Buffer
	if err := o.Checkpoint(&ckpt); err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(ckpt.Len()))
		for b.Loop() {
			if err := o.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// checkpointBytes runs a small fleet and returns its checkpoint.
func checkpointBytes(t *testing.T) []byte {
	t.Helper()
	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
	defer o.Close()
	if err := o.RunRounds(3); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestDecodeCheckpointCorruptInputs: every way a checkpoint file can
// be broken — empty, truncated, garbage, wrong version, right version
// with a mangled body — must produce a clear error, never a panic and
// never a silently wrong fleet.
func TestDecodeCheckpointCorruptInputs(t *testing.T) {
	good := checkpointBytes(t)
	cases := []struct {
		name string
		data []byte
		want string // substring of the error
	}{
		{"empty", nil, "decode checkpoint"},
		{"garbage", []byte("not json at all\x00\xff"), "decode checkpoint"},
		{"truncated-early", good[:10], "decode checkpoint"},
		{"truncated-half", good[:len(good)/2], "decode checkpoint"},
		{"truncated-last-byte", good[:len(good)-2], "decode checkpoint"},
		{"old-version", []byte(`{"Version":1,"Round":3}`), "checkpoint version 1"},
		{"future-version", []byte(`{"Version":99}`), "checkpoint version 99"},
		{"no-version", []byte(`{"Round":3}`), "checkpoint version 0"},
		{"mangled-body", []byte(`{"Version":4,"Bandit":"nope"}`), "decode checkpoint"},
		{"mangled-v5-body", []byte(`{"Version":5,"Pool":{}}`), "decode checkpoint"},
		// A pool entry is an object.
		{"arm-state-not-an-object", bytes.Replace(good, []byte(`"Pool":[`), []byte(`"Pool":[7,`), 1), "decode checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodeCheckpoint(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("decodeCheckpoint accepted corrupt input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestResumeRefusesStateOnStatelessArm: a checkpoint that gives a
// fleet without a thehuzz arm a TheHuzz pool decodes, but resume
// refuses it rather than drop the pool.
func TestResumeRefusesStateOnStatelessArm(t *testing.T) {
	arms := []ArmSpec{RandInstArm(testBody), RandFuzzArm(testBody)}
	o, err := New(Config{Shards: 2, BatchSize: 8, Seed: 5}, newRocket, arms...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer o.Close()
	if err := o.RunRounds(2); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	var good bytes.Buffer
	if err := o.Checkpoint(&good); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	bad := bytes.Replace(good.Bytes(), []byte(`"Merged":`), []byte(`"Pool":[{"Body":[19],"Score":1,"Age":1}],"Merged":`), 1)
	if bytes.Equal(bad, good.Bytes()) {
		t.Fatal("the checkpoint has no Merged key to put a pool before")
	}
	if _, err := decodeCheckpoint(bytes.NewReader(bad)); err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	r, err := ResumeMixed(bytes.NewReader(bad), []func() rtl.DUT{newRocket}, arms...)
	if err == nil {
		r.Close()
		t.Fatal("Resume accepted a TheHuzz pool on a fleet without a thehuzz arm")
	}
	if want := "carries a TheHuzz pool but the fleet has no thehuzz arm"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
}

// TestResumeFileCorruptVariants exercises the same corruptions through
// checkpoint files, opened and resumed the way `fuzz-bench campaign
// -resume` does.
func TestResumeFileCorruptVariants(t *testing.T) {
	good := checkpointBytes(t)
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/3]},
		{"garbage", []byte("\x89PNG not a checkpoint")},
		{"empty", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			if _, err := resumeFile(path); err == nil {
				t.Error("Resume accepted a corrupt checkpoint file")
			}
			if _, err := ReadCheckpointInfo(path); err == nil {
				t.Error("ReadCheckpointInfo accepted a corrupt checkpoint")
			}
		})
	}
	if _, err := resumeFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing checkpoint file resumed")
	}
}

// resumeFile resumes a single-design test fleet from the checkpoint
// file at path.
func resumeFile(path string) (*Orchestrator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ResumeMixed(f, []func() rtl.DUT{newRocket}, testArms()...)
}

// TestCheckpointFileSurvivesKillDuringWrite simulates dying mid-
// checkpoint: generation 1 is on disk, and the process was killed
// while staging generation 2 — leaving a partial .tmp next to the
// target, the exact state a kill -9 inside atomicio.WriteFile
// produces. The target must still hold the complete generation 1, it
// must resume, and the next checkpoint must succeed over the debris.
func TestCheckpointFileSurvivesKillDuringWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")

	o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5})
	defer o.Close()
	if err := o.RunRounds(2); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	if err := o.CheckpointFile(path); err != nil {
		t.Fatalf("CheckpointFile: %v", err)
	}
	gen1, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	// The kill: half of generation 2, never renamed.
	if err := os.WriteFile(path+".tmp123456", gen1[:len(gen1)/2], 0o600); err != nil {
		t.Fatalf("plant torn temp: %v", err)
	}

	if got, _ := os.ReadFile(path); !bytes.Equal(got, gen1) {
		t.Fatal("target no longer holds generation 1")
	}
	info, err := ReadCheckpointInfo(path)
	if err != nil {
		t.Fatalf("generation 1 unreadable beside torn temp: %v", err)
	}
	if info.Round != 2 {
		t.Fatalf("generation 1 decodes to round %d, want 2", info.Round)
	}
	resumed, err := resumeFile(path)
	if err != nil {
		t.Fatalf("resume from generation 1: %v", err)
	}
	defer resumed.Close()
	if err := resumed.RunRounds(1); err != nil {
		t.Fatalf("RunRounds after resume: %v", err)
	}
	// Generation 3 writes cleanly over the debris.
	if err := resumed.CheckpointFile(path); err != nil {
		t.Fatalf("checkpoint over torn temp: %v", err)
	}
	info, err = ReadCheckpointInfo(path)
	if err != nil {
		t.Fatalf("generation 3 unreadable: %v", err)
	}
	if info.Round != 3 {
		t.Fatalf("generation 3 decodes to round %d, want 3", info.Round)
	}
}

// FuzzDecodeCheckpoint: no input, however mangled, may panic the
// decoder — a daemon replaying a crashed disk must always get an
// error value it can report.
func FuzzDecodeCheckpoint(f *testing.F) {
	o, err := New(Config{Shards: 1, BatchSize: 8, Seed: 5}, newRocket, testArms()...)
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	if err := o.RunRounds(1); err != nil {
		f.Fatalf("RunRounds: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		f.Fatalf("Checkpoint: %v", err)
	}
	o.Close()
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte(`{"Version":4}`))
	f.Add([]byte(`{"Version":4,"Shards":[{}],"Globals":{"rocket":[1]}}`))
	f.Add([]byte{})
	f.Add([]byte(`{"Version":5,"Designs":["rocket"],"Pool":[{"Body":[1],"Score":1}],"Shards":[{}],"Globals":{"rocket":[1]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must return; errors are the expected outcome for
		// almost every input.
		_, _ = decodeCheckpoint(bytes.NewReader(data))
	})
}
