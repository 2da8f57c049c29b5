package campaign

// Golden contract tests: checkpoint bytes recorded on the commit
// before the executor collapse (PR 14's parent, 9626362). They pin
// what no refactor of the execution side may move — the trajectory,
// the scheduling state and the v4 wire format — independently of the
// oracle-vs-production table, which only proves the two agree with
// each other.

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
// bytes as written by the parent commit on every execution path.
var goldenCells = []struct {
	shards int
	mixed  bool
	learn  bool
	sha    string
}{
	{1, false, false, "58ccdf6980591a97244005fc86176cc6195016d9f6c13894b58c3ce13e788bb8"},
	{1, false, true, "879fb16f2d3dee055abf440cbf12aa6d4d02a21846b43e26d9a85326fbed1a2a"},
	{4, false, false, "dff4c99e1bce91ee94a25d30dfc24ea91260b54d67adbf365413971d36650f04"},
	{4, false, true, "4342a47fa55eeabe8e128ed9230a250e6fe4d27831d648f1f06308399a1f846e"},
	{4, true, false, "524e39de56a2eaf42c2c9d7bc797bf95161b3f682390c093aeca03d1478ddeff"},
	{4, true, true, "19a6b4b1cc2a0ee4a7d635bc1e125c5b534601dd4ff28d3764de289547b36e32"},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenCheckpointHashes: the production path still writes the
// parent's checkpoint bytes for fixed seeds.
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
				t.Errorf("checkpoint sha256 = %s, want the parent's %s", got, c.sha)
			}
		})
	}
}

// parentFixture is a v4 checkpoint written by the parent commit: a
// rocket+boom fleet, 2 shards x 4, Seed 51, Detect, UpdateBudget 2,
// MismatchWeight 0.25, paused after 2 rounds. parentFixtureNext is the
// SHA-256 of the parent's own checkpoint 2 rounds later.
const (
	parentFixture     = "testdata/v4_parent_mixed.ckpt.json"
	parentFixtureNext = "2511c61cfb5efc77ef8214452f0e54c78b927483a398c5422f3b3736857e61f4"
)

// TestParentCheckpointRoundTrips: the wire format did not move — a
// parent-written v4 file decodes and re-encodes byte-identically.
func TestParentCheckpointRoundTrips(t *testing.T) {
	raw, err := os.ReadFile(parentFixture)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&cf); err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Errorf("re-encoded checkpoint differs from the parent's bytes (%d vs %d bytes)", buf.Len(), len(raw))
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

// TestParentCheckpointResumes: a checkpoint written by the parent
// resumes, and the continued run writes the bytes the parent's own
// continuation wrote.
func TestParentCheckpointResumes(t *testing.T) {
	o, err := ResumeMixedFile(parentFixture, []func() rtl.DUT{newRocket, newBoom}, testArms()...)
	if err != nil {
		t.Fatalf("ResumeMixedFile: %v", err)
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
	if got := sha256Hex(buf.Bytes()); got != parentFixtureNext {
		t.Errorf("continued checkpoint sha256 = %s, want the parent's %s", got, parentFixtureNext)
	}
}
