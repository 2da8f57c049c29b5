package mismatch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"chatfuzz/internal/trace"
)

// checkStateRoundTrip holds the detector's checkpoint form to an
// identity: json.Marshal of State, decoded and restored with SetState,
// is the same State again, with the same novel-signature count.
func checkStateRoundTrip(t *testing.T, d *Detector) {
	t.Helper()
	raw := stateBytes(t, d)
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	r := NewDetector()
	r.SetState(st)
	if again := stateBytes(t, r); !bytes.Equal(again, raw) {
		t.Fatalf("Marshal, Unmarshal, SetState, State is not the identity:\nfirst %s\nthen  %s", raw, again)
	}
	if r.NovelSignatures() != d.NovelSignatures() {
		t.Fatalf("restored detector counts %d novel signatures, want %d", r.NovelSignatures(), d.NovelSignatures())
	}
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

// FuzzDetectorStateRoundTrip: for any detector state, json.Marshal of
// State, decoded and restored with SetState, gives back that State; and
// again after the state moves: counts, upgrades and new clusters
// (rerecord).
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
		d := detectorFrom(data)
		checkStateRoundTrip(t, d)
		rerecord(d)
		checkStateRoundTrip(t, d)
	})
}
