package campaign

// Golden contract tests: checkpoint bytes of fixed-seed fleets. They
// pin what no refactor of the execution side may move — the trajectory,
// the scheduling state and the v5 wire format — independently of the
// oracle-vs-production table, which only proves the two agree with
// each other; and a version 4 file written by an earlier build still
// resumes bit-exactly.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"chatfuzz/internal/rtl"
)

// goldenCells are determinism-table cells (BatchSize 4, RoundBatches 2,
// Seed 33, Detect, 3 rounds) with the SHA-256 of their checkpoint
// bytes on every execution path. The v4 bytes each cell wrote before
// convert (checkpointV4.v5) to exactly these v5 bytes.
var goldenCells = []struct {
	shards int
	mixed  bool
	learn  bool
	sha    string
}{
	{1, false, false, "b03c3fb84a897ca7347488495d76a8a78a02ee71b7758ab3664a7fd2e7f282d7"},
	{1, false, true, "43705942d591fb64d8e723bb563ae3337a4a6a59b5e7ab6532ff784dfa0fbdff"},
	{4, false, false, "08448906cd4164c70849062421c42d91198a8468a44bd83f52832094040fa0b5"},
	{4, false, true, "4de88428540bbf7b1503f27c2a35221d85abc7d2ab7ce7852975facb3011475f"},
	{4, true, false, "fac92e0f9278022bc80a3ebae15684748c29d87bf3c797a602ef6b76e835e379"},
	{4, true, true, "9e4962a707984c0703546d20308a8d6a8a0443b3f4e8e7f554a7d0a022421b82"},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenCheckpointHashes: the production path still writes the
// pinned checkpoint bytes for fixed seeds.
func TestGoldenCheckpointHashes(t *testing.T) {
	for _, c := range goldenCells {
		t.Run(fmt.Sprintf("shards=%d/mixed=%v/learn=%v", c.shards, c.mixed, c.learn), func(t *testing.T) {
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
			var buf bytes.Buffer
			if err := o.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if got := sha256Hex(buf.Bytes()); got != c.sha {
				t.Errorf("checkpoint sha256 = %s, want the pinned %s", got, c.sha)
			}
		})
	}
}

// parentFixture is a v4 checkpoint written by an earlier build: a
// rocket+boom fleet of fixtureConfig, paused after 2 rounds.
const parentFixture = "testdata/v4_parent_mixed.ckpt.json"

var (
	fixtureConfig = Config{Shards: 2, BatchSize: 4, Seed: 51, Detect: true, UpdateBudget: 2, MismatchWeight: 0.25}
	fixtureDUTs   = []func() rtl.DUT{newRocket, newBoom}
)

// fixtureRun returns the checkpoint of a fresh fixtureConfig fleet after
// rounds rounds.
func fixtureRun(t *testing.T, rounds int) []byte {
	t.Helper()
	o, err := NewMixed(fixtureConfig, fixtureDUTs, testArms()...)
	if err != nil {
		t.Fatalf("NewMixed: %v", err)
	}
	defer o.Close()
	if err := o.RunRounds(rounds); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestParentCheckpointRoundTrips: the v4 fixture converts to the v5
// struct, which encodes as the v5 checkpoint a fresh fleet writes at
// the fixture's round.
func TestParentCheckpointRoundTrips(t *testing.T) {
	raw, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if cf.Version != checkpointVersion || cf.Round != 2 {
		t.Fatalf("the fixture converts to version %d at round %d, want %d at round 2", cf.Version, cf.Round, checkpointVersion)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&cf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if want := fixtureRun(t, 2); !bytes.Equal(buf.Bytes(), want) {
		at := firstDiff(buf.Bytes(), want)
		t.Errorf("the converted fixture encodes differently from a fresh fleet's v5 checkpoint at byte %d:\n got …%s\nwant …%s",
			at, around(buf.Bytes(), at), around(want, at))
	}
}

// TestParentCheckpointRefusesDivergentShards: a v4 file converts only
// if its shards hold what a barrier leaves — one TheHuzz state at the
// checkpoint's round, and each shard's coverage its design's merged
// bitmap — and otherwise is refused with an error naming the shard.
func TestParentCheckpointRefusesDivergentShards(t *testing.T) {
	raw, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*checkpointV4)
		want string
	}{
		{"as written", func(*checkpointV4) {}, ""},
		{"pools differ", func(v *checkpointV4) { v.Shards[1].Arms[0].Pool[0].Score++ }, "shard 1 TheHuzz pool differs"},
		{"pool round", func(v *checkpointV4) { v.Shards[0].Arms[0].Round = v.Round + 1 }, "shard 0 TheHuzz pool is at round 3"},
		{"coverage", func(v *checkpointV4) { v.Shards[1].Cov[0] ^= 1 }, "shard 1 coverage differs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var v checkpointV4
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Fatal(err)
			}
			tc.edit(&v)
			edited, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			_, err = decodeCheckpoint(bytes.NewReader(edited))
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("the re-marshalled fixture is refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want a refusal saying %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointScheduleConstants: the keys that record the bandit's
// scheduling constants decode when they hold the value every v4 file
// holds, and a file that recorded another schedule is refused with an
// error naming the key. ExploreC is accepted under both of its
// spellings: 0 ("the default") and √2 itself.
func TestCheckpointScheduleConstants(t *testing.T) {
	raw, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	sqrt2 := strconv.FormatFloat(math.Sqrt2, 'g', -1, 64)
	for _, tc := range []struct {
		key, fixture string // the key and its value in the fixture
		accept       []string
		reject       string
	}{
		{"ExploreC", "0", []string{"0", sqrt2}, "2"},
		{"RewardHalf", "60", []string{"60"}, "61"},
		{"BanditDecay", "0.9", []string{"0.9"}, "1"},
		{"NoSync", "false", []string{"false"}, "true"},
		{"MismatchHalf", "3", []string{"3"}, "30"},
	} {
		was := []byte(`"` + tc.key + `":` + tc.fixture + `,`)
		if n := bytes.Count(raw, was); n != 1 {
			t.Fatalf("fixture holds %s %d times, want once", was, n)
		}
		with := func(v string) []byte {
			return bytes.Replace(raw, was, []byte(`"`+tc.key+`":`+v+`,`), 1)
		}
		for _, v := range tc.accept {
			if _, err := decodeCheckpoint(bytes.NewReader(with(v))); err != nil {
				t.Errorf("%s %s refused: %v", tc.key, v, err)
			}
		}
		_, err := decodeCheckpoint(bytes.NewReader(with(tc.reject)))
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s %s: err = %v, want a refusal naming the key", tc.key, tc.reject, err)
		}
	}
}

// TestParentCheckpointResumes: a v4 checkpoint written by an earlier
// build resumes, and 2 rounds later the fleet writes the bytes of a
// fresh 4-round run of the fixture's config.
func TestParentCheckpointResumes(t *testing.T) {
	f, err := os.Open(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	o, err := ResumeMixed(f, fixtureDUTs, testArms()...)
	f.Close()
	if err != nil {
		t.Fatalf("ResumeMixed: %v", err)
	}
	defer o.Close()
	if o.Rounds() != 2 || o.Cfg.UpdateBudget != 2 || o.Cfg.MismatchWeight != 0.25 {
		t.Fatalf("resumed at round %d with config %+v", o.Rounds(), o.Cfg)
	}
	if err := o.RunRounds(2); err != nil {
		t.Fatalf("RunRounds: %v", err)
	}
	var buf bytes.Buffer
	if err := o.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if want := fixtureRun(t, 4); !bytes.Equal(buf.Bytes(), want) {
		at := firstDiff(buf.Bytes(), want)
		t.Errorf("the resumed fixture checkpoints differently from a fresh 4-round run at byte %d:\n got …%s\nwant …%s",
			at, around(buf.Bytes(), at), around(want, at))
	}
}
