package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chatfuzz/internal/baseline/thehuzz"
	"chatfuzz/internal/ml/nn"
	"chatfuzz/internal/rtl"
)

// checkpointRef is the checkpoint writer appendCheckpoint replaced,
// kept as its oracle: fill a checkpointFile from copies of the fleet's
// state and let encoding/json write it.
func checkpointRef(o *Orchestrator) ([]byte, error) {
	cf := checkpointFile{
		Version: checkpointVersion,
		Config:  o.Cfg.wire(),
		Round:   o.round,
		Tests:   o.tests,
		Designs: o.designs,
		Bins:    make(map[string]int, len(o.names)),
		Bandit:  banditState{Pulls: o.bandit.Pulls, W: o.bandit.W, Sums: o.bandit.Sums, T: o.bandit.T},
		Globals: make(map[string][]uint64, len(o.names)),
		Merged:  o.merged,
	}
	for _, n := range o.names {
		cf.Bins[n] = o.globals[n].Space().NumBins()
		cf.Globals[n] = o.globals[n].Snapshot()
	}
	for i, sp := range o.specs {
		cf.Arms = append(cf.Arms, sp.sig)
		if fl := o.fleets[i]; fl != nil {
			if cf.Learn == nil {
				cf.Learn = make(map[string]learnState)
			}
			fl.Sync()
			st := learnState{Pub: nn.EncodeWeights(fl.Weights())}
			if staged := fl.Staged(); staged != nil {
				st.Staged = nn.EncodeWeights(staged)
			}
			cf.Learn[sp.Name] = st
		}
	}
	for _, s := range o.shards {
		st := shardState{
			Tests:   s.Tests,
			Seconds: s.Clk.Seconds(),
			Cov:     s.Calc.Total().Snapshot(),
			Arms:    make([]json.RawMessage, len(s.arms)),
		}
		if s.Det != nil {
			det := s.Det.State()
			st.Det = &det
		}
		for i, a := range s.arms {
			switch a := a.(type) {
			case *huzzArm:
				raw, err := json.Marshal(a.Gen.State())
				if err != nil {
					return nil, err
				}
				st.Arms[i] = raw
			case statefulArm:
				return nil, fmt.Errorf("checkpointRef does not know stateful arm %T", a)
			}
		}
		cf.Shards = append(cf.Shards, st)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&cf)
	return buf.Bytes(), err
}

// checkAppendCheckpoint holds the paused fleet's checkpoint to the
// oracle's bytes through every way of asking for it, and returns them.
func checkAppendCheckpoint(t *testing.T, o *Orchestrator) []byte {
	t.Helper()
	want, err := checkpointRef(o)
	if err != nil {
		t.Fatalf("checkpointRef: %v", err)
	}
	got, err := o.appendCheckpoint(nil)
	if err != nil {
		t.Fatalf("appendCheckpoint: %v", err)
	}
	if !bytes.Equal(got, want) {
		at := firstDiff(got, want)
		t.Fatalf("appendCheckpoint differs from encoding/json at byte %d of %d/%d:\n got …%s\nwant …%s",
			at, len(got), len(want), around(got, at), around(want, at))
	}
	prefix := []byte("keep\n")
	if onto, err := o.appendCheckpoint(append([]byte(nil), prefix...)); err != nil || !bytes.Equal(onto, append(prefix, want...)) {
		t.Fatalf("appendCheckpoint onto a prefix (err %v) did not leave it alone", err)
	}
	// The public writer, twice: the second call runs in the reused buffer.
	for call := 1; call <= 2; call++ {
		var buf bytes.Buffer
		if err := o.Checkpoint(&buf); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("Checkpoint call %d differs from encoding/json", call)
		}
	}
	// Decoding the new bytes and encoding them the old way is the identity.
	cf, err := decodeCheckpoint(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&cf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), got) {
		t.Fatal("decode then encoding/json is not the identity on the new bytes")
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
	o, err := NewMixed(Config{Shards: 4, BatchSize: 16, Seed: 1, Detect: true}, []func() rtl.DUT{newRocket, newBoom},
		TheHuzzArm(24), RandInstArm(24), RandFuzzArm(24))
	if err != nil {
		tb.Fatalf("NewMixed: %v", err)
	}
	return o
}

// TestAppendCheckpointMatchesEncodingJSON: the single-pass writer is
// byte for byte the encoding/json writer it replaced, on every shape of
// fleet state the format has a spelling for.
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
				t.Errorf("checkpoint sha256 = %s, want the parent's %s", got, c.sha)
			}
		})
	}

	t.Run("before the first round", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 2, BatchSize: 8, Seed: 5, Detect: true})
		defer o.Close()
		got := checkAppendCheckpoint(t, o)
		for _, want := range []string{`"Merged":null`, `"Pool":[]`, `"Records":null`} {
			if !bytes.Contains(got, []byte(want)) {
				t.Errorf("a fleet that has not run carries no %s", want)
			}
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
		if got := checkAppendCheckpoint(t, o); !bytes.Contains(got, []byte(`"Arms":[null,null]`)) {
			t.Error("stateless arms are not written as null")
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

	// A resumed fleet's pools are SetState's deep copies: no arm shares
	// another's state, so every pool is encoded in full until the next
	// barrier hands the shards one merged pool again.
	t.Run("farm_jobs shape resumed", func(t *testing.T) {
		o := farmJobsFleet(t)
		defer o.Close()
		if err := o.RunRounds(10); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		want := checkAppendCheckpoint(t, o)
		if sameHuzzStates(o) == 0 {
			t.Fatal("after a barrier no two shards share a TheHuzz state: the copy path is not exercised")
		}
		r, err := ResumeMixed(bytes.NewReader(want), []func() rtl.DUT{newRocket, newBoom},
			TheHuzzArm(24), RandInstArm(24), RandFuzzArm(24))
		if err != nil {
			t.Fatalf("ResumeMixed: %v", err)
		}
		defer r.Close()
		if n := sameHuzzStates(r); n != 0 {
			t.Fatalf("%d TheHuzz arms of a resumed fleet share state", n)
		}
		if got := checkAppendCheckpoint(t, r); !bytes.Equal(got, want) {
			t.Fatal("the resumed fleet checkpoints differently from the fleet it resumed")
		}
		if err := r.RunRounds(1); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		checkAppendCheckpoint(t, r)
	})

	// Pools adopted from one slice are the same pool; the round is not
	// part of the pool, so two shards that adopted it in different rounds
	// encode differently and neither may copy the other.
	t.Run("adopted pool, two rounds", func(t *testing.T) {
		o := mustNew(t, Config{Shards: 3, BatchSize: 8, Seed: 5, Detect: true})
		defer o.Close()
		if err := o.RunRounds(2); err != nil {
			t.Fatalf("RunRounds: %v", err)
		}
		gens := huzzGens(o)
		var pool []thehuzz.PoolEntry
		gens[0].VisitPool(func(e thehuzz.PoolEntry) { pool = append(pool, e) })
		if len(pool) == 0 {
			t.Fatal("no pool to adopt")
		}
		gens[0].AdoptPool(7, pool)
		gens[1].AdoptPool(8, pool)
		gens[2].AdoptPool(7, pool)
		if !gens[0].SamePool(gens[1]) || gens[0].SameState(gens[1]) || !gens[0].SameState(gens[2]) {
			t.Fatal("SamePool/SameState do not see the adopted pools as built")
		}
		checkAppendCheckpoint(t, o)
	})
}

// sameHuzzStates counts the TheHuzz generators whose state equals an
// earlier shard's: the arms a checkpoint copies instead of encoding.
func sameHuzzStates(o *Orchestrator) int {
	gens, n := huzzGens(o), 0
	for i, g := range gens {
		if slices.ContainsFunc(gens[:i], g.SameState) {
			n++
		}
	}
	return n
}

// TestCheckpointMarshalErrorSurfaces: a value encoding/json refuses is
// an error from both writers, not a truncated file.
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

// BenchmarkCheckpoint encodes a farm_jobs-shaped fleet 200 rounds in —
// what a CheckpointEvery 1 job pays per round before the file write —
// with the writer in use and with the encoding/json writer it replaced.
func BenchmarkCheckpoint(b *testing.B) {
	o := farmJobsFleet(b)
	defer o.Close()
	if err := o.RunRounds(200); err != nil {
		b.Fatalf("RunRounds: %v", err)
	}
	ref, err := checkpointRef(o)
	if err != nil {
		b.Fatalf("checkpointRef: %v", err)
	}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(ref)))
		for b.Loop() {
			if err := o.Checkpoint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encodingjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(ref)))
		for b.Loop() {
			if _, err := checkpointRef(o); err != nil {
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
	return Resume(f, newRocket, testArms()...)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode must return; errors are the expected outcome for
		// almost every input.
		_, _ = decodeCheckpoint(bytes.NewReader(data))
	})
}
