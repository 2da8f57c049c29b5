package mismatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

// checkAppendState holds AppendState to its oracle, json.Marshal of
// State, both on an empty buffer and after a prefix that must survive,
// and returns the encoding.
func checkAppendState(t testing.TB, d *Detector) []byte {
	t.Helper()
	want := stateBytes(t, d)
	if got := d.AppendState(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendState differs from json.Marshal(State()):\n got %s\nwant %s", got, want)
	}
	prefix := []byte(`{"keep":1,"Det":`)
	if got := d.AppendState(bytes.Clone(prefix)); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendState onto a prefix:\n got %s\nwant %s%s", got, prefix, want)
	}
	return want
}

// withRecords is a detector restored from counters and records given as
// they are, which is the only way to hold signatures the comparison
// loop never builds.
func withRecords(recs ...Record) *Detector {
	d := NewDetector()
	d.SetState(State{Tests: 9, RawCount: 7, FilteredRaw: 3, Records: recs})
	return d
}

// TestAppendStateMatchesMarshal: the hand-written detector encoder is
// byte for byte json.Marshal(d.State()) on every kind of state.
func TestAppendStateMatchesMarshal(t *testing.T) {
	csr := entry(0x100, isa.OpCSRRS, isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMCycle))
	csr.RdValid, csr.Rd, csr.RdVal = true, isa.A0, 10
	mul := entry(0x108, isa.OpMUL, 0x02B50533)
	mul.RdValid, mul.Rd, mul.RdVal = true, isa.A0, 42
	csrDiff, mulNoWrite := csr, mul
	csrDiff.RdVal = 99
	mulNoWrite.RdValid, mulNoWrite.Rd, mulNoWrite.RdVal = false, 0, 0
	wide := trace.Entry{PC: math.MaxUint64, Raw: math.MaxUint32, Op: isa.Op(math.MaxUint16), RdValid: true,
		Rd: 31, RdVal: 1 << 63, MemValid: true, MemAddr: math.MaxUint64 - 1, MemWrite: true, Trap: true,
		Cause: math.MaxUint64, TVal: 12345, Priv: isa.PrivM}

	cases := []struct {
		name string
		d    func() *Detector
	}{
		{"empty", func() *Detector { return NewDetector() }}, // "Records":null
		{"counters only", func() *Detector {
			d := NewDetector()
			d.SkipTest()
			d.SkipTest()
			return d
		}},
		{"filtered", func() *Detector {
			d := NewDetector()
			d.Analyze(1, []trace.Entry{csrDiff, mulNoWrite}, []trace.Entry{csr, mul})
			return d
		}},
		{"filtered then upgraded", func() *Detector {
			d := NewDetector()
			d.Analyze(1, []trace.Entry{csrDiff, mulNoWrite}, []trace.Entry{csr, mul})
			d.Analyze(2, []trace.Entry{mulNoWrite}, []trace.Entry{mul})
			return d
		}},
		{"random analyses", func() *Detector {
			d, rng := NewDetector(), rand.New(rand.NewSource(5))
			for i := 0; i < 80; i++ {
				data := make([]byte, 200)
				rng.Read(data)
				dut, golden, _ := tracePair(data, 0)
				d.Observe(d.Tests+1, dut, golden, 0)
			}
			return d
		}},
		{"extreme fields", func() *Detector {
			return withRecords(Record{Signature: "rd-value|mul", Kind: KindRdValue, Finding: Finding(-3), Count: math.MaxInt64,
				Example: Mismatch{Test: math.MinInt64, Index: -1, Kind: Kind(99), DUT: wide, Golden: trace.Entry{}, Signature: "x"}})
		}},
		// Each of these leaves the fast path for json.Marshal; "&" alone
		// is what encoding/json's HTML escaping adds over the JSON grammar.
		{"signatures that need escaping", func() *Detector {
			var recs []Record
			for i, s := range []string{`a<b`, `a>b`, `amp&`, `q"uote`, `back\slash`, "café", "ctl\x01",
				"tab\t", "del\x7f", "line\u2028sep", "bad\xffutf8", ""} {
				recs = append(recs, Record{Signature: s, Count: i + 1, Filtered: i%2 == 0,
					Example: Mismatch{Signature: s, DUT: wide}})
			}
			return withRecords(recs...)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAppendState(t, c.d()) })
	}

	// The upgrade of a filtered record rewrites all of it but its count,
	// and the next encoding must see it.
	t.Run("encoded, upgraded, encoded", func(t *testing.T) {
		d := NewDetector()
		d.Analyze(1, []trace.Entry{csrDiff, mulNoWrite}, []trace.Entry{csr, mul})
		before := checkAppendState(t, d)
		d.Analyze(2, []trace.Entry{mulNoWrite}, []trace.Entry{mul})
		if after := checkAppendState(t, d); bytes.Equal(after, before) || d.NovelSignatures() != 1 {
			t.Fatalf("the second analysis upgraded no record (%d novel)", d.NovelSignatures())
		}
	})
}

// rerecord records every clustered example of d once more, unfiltered:
// the examples the comparison loop built rebuild their own signature, so
// a filtered one is upgraded and any other counted again, and a
// restored record whose signature the loop would not build opens a new
// cluster.
func rerecord(d *Detector) {
	for _, r := range d.Unique() {
		ex := r.Example
		d.record(ex.Test, ex.Index, ex.Kind, &ex.DUT, &ex.Golden, false, nil)
	}
}

// detectorFrom builds a detector from fuzz bytes: the first half is
// trace pairs run through the comparison loop, the rest up to eight
// records read field by field (any signature bytes, kinds, counts and
// entries), restored through SetState alongside the loop's own
// clusters. Bounding what an input can say keeps the fuzzer's
// minimization of a new input short.
func detectorFrom(data []byte) *Detector {
	half := len(data) / 2
	loop, rest := data[:half], data[half:]
	d := NewDetector()
	for test := 1; len(loop) > 0 && test <= 8; test++ {
		var dut, golden []trace.Entry
		dut, golden, loop = tracePair(loop, 0)
		d.Observe(test, dut, golden, 0)
	}
	st := d.State()
	next := func(n int) []byte {
		b := make([]byte, n)
		copy(b, rest)
		rest = rest[min(n, len(rest)):]
		return b
	}
	seen := make(map[string]bool)
	for _, r := range st.Records {
		seen[r.Signature] = true
	}
	for n := 0; len(rest) > 0 && n < 8; n++ {
		hdr := next(4)
		// Decoding rewrites invalid UTF-8, which could merge two
		// signatures into one cluster: keep the signature valid and new.
		sig := strings.ToValidUTF8(string(next(int(hdr[0]%12))), "?")
		r := Record{Signature: sig, Kind: Kind(int8(hdr[1])), Finding: Finding(hdr[2] % 8),
			Count: int(int32(binary.LittleEndian.Uint32(next(4)))), Filtered: hdr[3]&1 != 0}
		r.Example = Mismatch{Test: int(hdr[3]), Index: int(hdr[2]), Kind: r.Kind, Signature: sig,
			Finding: r.Finding, Filtered: r.Filtered,
			DUT: fieldEntry(hdr[1], hdr[2]), Golden: fieldEntry(hdr[2], hdr[3])}
		r.Example.DUT.PC = binary.LittleEndian.Uint64(next(8))
		if !seen[sig] {
			seen[sig] = true
			st.Records = append(st.Records, r)
		}
	}
	d.SetState(st)
	return d
}

// FuzzDetectorStateRoundTrip: for any detector state, AppendState is
// json.Marshal(State()), and decoding those bytes, restoring them with
// SetState and encoding again is the identity. AppendState is held to
// json.Marshal again after the state moves: counts, upgrades and new
// clusters (rerecord).
func FuzzDetectorStateRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+rng.Intn(200))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x05\x01\x02\x03a<b&c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		first := detectorFrom(data)
		raw := checkAppendState(t, first)
		rerecord(first)
		checkAppendState(t, first)
		var st State
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		d := NewDetector()
		d.SetState(st)
		if again := d.AppendState(nil); !bytes.Equal(again, raw) {
			t.Fatalf("decode, SetState, AppendState is not the identity:\nfirst %s\nthen  %s", raw, again)
		}
	})
}
