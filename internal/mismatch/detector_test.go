package mismatch

// Table tests of the detector's pieces — filter and taint, cluster
// upgrade, alignment break, trace-length mismatches, signatures — and of the one property the commit path relies on:
// skipping a known-equal prefix records exactly what comparing from
// entry 0 records.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

// signatureRef is the fmt-built signature the detector used before it
// appended bytes: the oracle appendSignature is held to. A trace-length
// mismatch was keyed "trace-length" by Analyze itself.
func signatureRef(k Kind, dut, golden trace.Entry) string {
	if k == KindLength {
		return "trace-length"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s", k, golden.Op)
	switch k {
	case KindCause:
		fmt.Fprintf(&b, "|%d-vs-%d", dut.Cause, golden.Cause)
	case KindRdWrite:
		fmt.Fprintf(&b, "|dut=%v,x%d", dut.RdValid, dut.Rd)
	case KindTrap:
		fmt.Fprintf(&b, "|dut=%v", dut.Trap)
	}
	return b.String()
}

// TestSignatureMatchesFmt: every kind, both values of each bool the
// signature prints, every register, causes up to 2^64-1 and an opcode
// outside the table.
func TestSignatureMatchesFmt(t *testing.T) {
	causes := []uint64{0, 1, isa.ExcLoadAccessFault, 1 << 32, 1 << 63, math.MaxUint64}
	ops := []isa.Op{isa.OpADDI, isa.OpMUL, isa.OpAMOORD, isa.OpCSRRS, isa.Op(math.MaxUint16)}
	var buf []byte
	n := 0
	for k := KindStaleFetch; k <= KindLength; k++ {
		for _, op := range ops {
			for _, valid := range []bool{false, true} {
				for _, trap := range []bool{false, true} {
					for rd := isa.Reg(0); rd < 32; rd++ {
						for _, c := range causes {
							d := trace.Entry{Op: op, RdValid: valid, Rd: rd, Trap: trap, Cause: c}
							g := trace.Entry{Op: op, RdValid: !valid, Trap: !trap, Cause: math.MaxUint64 - c}
							buf = appendSignature(buf[:0], k, &d, &g)
							if want := signatureRef(k, d, g); string(buf) != want {
								t.Fatalf("kind %v: signature %q, want %q", k, buf, want)
							}
							n++
						}
					}
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no signature compared")
	}
}

// TestDetectorTable: one case per rule of the comparison loop, each
// checked on the raw mismatches Analyze returns and on the clusters.
func TestDetectorTable(t *testing.T) {
	add := entry(0x104, isa.OpADD, 0x33)
	csr := entry(0x100, isa.OpCSRRS, isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMCycle))
	csr.RdValid, csr.Rd, csr.RdVal = true, isa.A0, 10
	mul := entry(0x108, isa.OpMUL, 0x02B50533)
	mul.RdValid, mul.Rd, mul.RdVal = true, isa.A0, 42
	with := func(e trace.Entry, f func(*trace.Entry)) trace.Entry { f(&e); return e }
	noWrite := with(mul, func(e *trace.Entry) { e.RdValid, e.Rd, e.RdVal = false, 0, 0 })

	type want struct {
		index    int
		kind     Kind
		filtered bool
		finding  Finding
	}
	for _, tc := range []struct {
		name        string
		dut, golden [][]trace.Entry // one trace pair per test
		raw         []want          // the last test's raw mismatches
		clusters    int
		novel       int
	}{
		{
			name: "filter taints the rest of the test",
			dut: [][]trace.Entry{{with(csr, func(e *trace.Entry) { e.RdVal = 99 }),
				with(add, func(e *trace.Entry) { e.RdValid, e.RdVal = true, 1 })}},
			golden: [][]trace.Entry{{csr, add}},
			raw: []want{{0, KindRdValue, true, FindingFalsePositive},
				{1, KindRdWrite, true, FindingFalsePositive}},
			clusters: 2, novel: 0,
		},
		{
			name: "a non-filtered instance upgrades a filtered cluster",
			dut: [][]trace.Entry{
				{with(csr, func(e *trace.Entry) { e.RdVal = 99 }), noWrite},
				{noWrite},
			},
			golden: [][]trace.Entry{{csr, mul}, {mul}},
			raw:    []want{{0, KindRdWrite, false, FindingBug2}},
			// rd-value|csrrs stays filtered; rd-write-presence|mul was
			// created filtered by the taint and is now upgraded.
			clusters: 2, novel: 1,
		},
		{
			name:     "control-flow divergence stops the comparison",
			dut:      [][]trace.Entry{{with(add, func(e *trace.Entry) { e.PC = 0x200 }), noWrite}},
			golden:   [][]trace.Entry{{add, mul}},
			raw:      []want{{0, KindControlFlow, false, FindingUnknown}},
			clusters: 1, novel: 1,
		},
		{
			name:     "stale fetch stops the comparison",
			dut:      [][]trace.Entry{{with(add, func(e *trace.Entry) { e.Raw = 0x13 }), noWrite}},
			golden:   [][]trace.Entry{{add, mul}},
			raw:      []want{{0, KindStaleFetch, false, FindingBug1}},
			clusters: 1, novel: 1,
		},
		{
			name:     "trace length with an empty side",
			dut:      [][]trace.Entry{{}},
			golden:   [][]trace.Entry{{add}},
			raw:      []want{{0, KindLength, false, FindingUnknown}},
			clusters: 1, novel: 1,
		},
		{
			name:     "trace length after an equal prefix",
			dut:      [][]trace.Entry{{add, mul, add}},
			golden:   [][]trace.Entry{{add, mul}},
			raw:      []want{{2, KindLength, false, FindingUnknown}},
			clusters: 1, novel: 1,
		},
		{
			name:     "no trace-length mismatch once one was recorded",
			dut:      [][]trace.Entry{{add, noWrite, add}},
			golden:   [][]trace.Entry{{add, mul}},
			raw:      []want{{1, KindRdWrite, false, FindingBug2}},
			clusters: 1, novel: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetector()
			var ms []Mismatch
			for i := range tc.dut {
				ms = d.Analyze(i+1, tc.dut[i], tc.golden[i])
			}
			if len(ms) != len(tc.raw) {
				t.Fatalf("%d raw mismatches, want %d: %+v", len(ms), len(tc.raw), ms)
			}
			for i, w := range tc.raw {
				m := ms[i]
				if got := (want{m.Index, m.Kind, m.Filtered, m.Finding}); got != w {
					t.Errorf("mismatch %d: %+v, want %+v", i, got, w)
				}
				var dv, gv trace.Entry
				if m.Kind != KindLength || m.Index > 0 {
					j := min(m.Index, len(tc.golden[len(tc.golden)-1])-1)
					dv, gv = tc.dut[len(tc.dut)-1][j], tc.golden[len(tc.golden)-1][j]
				}
				if m.DUT != dv || m.Golden != gv {
					t.Errorf("mismatch %d carries entries %v / %v, want %v / %v", i, m.DUT, m.Golden, dv, gv)
				}
				if want := signatureRef(m.Kind, dv, gv); m.Signature != want {
					t.Errorf("mismatch %d: signature %q, want %q", i, m.Signature, want)
				}
			}
			if got := len(d.Unique()); got != tc.clusters {
				t.Errorf("%d clusters, want %d", got, tc.clusters)
			}
			if got := d.NovelSignatures(); got != tc.novel {
				t.Errorf("NovelSignatures = %d, want %d", got, tc.novel)
			}
		})
	}
}

// fieldEntry draws one trace entry from small value sets, so that two
// independently drawn entries often agree and, when they differ, differ
// in every way the detector tells apart (including cycle-CSR reads the
// default filter drops).
func fieldEntry(b byte, c byte) trace.Entry {
	ops := []isa.Op{isa.OpADDI, isa.OpMUL, isa.OpLW, isa.OpAMOORD, isa.OpCSRRS, isa.OpLD}
	raws := []uint32{0x13, isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRCycle)}
	causes := []uint64{isa.ExcLoadAddrMisaligned, isa.ExcLoadAccessFault, isa.ExcIllegalInstruction, math.MaxUint64}
	e := trace.Entry{
		PC:  0x100 + 4*uint64(b&1),
		Raw: raws[b>>1&1],
		Op:  ops[int(b>>2)%len(ops)],
	}
	e.RdValid, e.Rd, e.RdVal = c&1 != 0, isa.Reg(c>>1&1), uint64(c>>2&1)
	e.Trap, e.Cause = c&8 != 0, causes[c>>4&3]
	e.MemValid = c&0x40 != 0
	e.Priv = isa.PrivM
	return e
}

// tracePair builds a DUT and golden trace from data: a length byte per
// side, then per entry a golden draw and a byte saying how the DUT
// entry departs from it (mostly not at all). The first k entries are
// then forced equal.
func tracePair(data []byte, k int) (dut, golden []trace.Entry, rest []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nd, ng := int(next()%24), int(next()%24)
	for i := 0; i < max(nd, ng); i++ {
		g := fieldEntry(next(), next())
		d, how := g, next()
		if how&3 == 0 { // one in four departs
			d = fieldEntry(how>>2, next())
		}
		if i < ng {
			golden = append(golden, g)
		}
		if i < nd {
			dut = append(dut, d)
		}
	}
	for i := 0; i < k && i < min(nd, ng); i++ {
		dut[i] = golden[i]
	}
	return dut, golden, data
}

// stateBytes is the detector's checkpoint form.
func stateBytes(t testing.TB, d *Detector) []byte {
	raw, err := json.Marshal(d.State())
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkSkipMatchesFull feeds the test pairs encoded in data to one
// detector from entry 0 (Analyze) and to one skipping the forced-equal
// prefix (Observe), and fails unless both checkpoint to the same bytes
// and count the same novel signatures as their clusters say.
func checkSkipMatchesFull(t testing.TB, data []byte) {
	full, skip := NewDetector(), NewDetector()
	for test := 1; len(data) > 0 && test <= 16; test++ {
		k := int(data[0] % 32) // up to past either trace's end
		var dut, golden []trace.Entry
		dut, golden, data = tracePair(data[1:], k)
		full.Analyze(test, dut, golden)
		skip.Observe(test, dut, golden, k)
	}
	if a, b := stateBytes(t, full), stateBytes(t, skip); !bytes.Equal(a, b) {
		t.Fatalf("skipping the equal prefix changed the detector state:\nfrom 0: %s\nskip:   %s", a, b)
	}
	for _, d := range []*Detector{full, skip} {
		if got, want := d.NovelSignatures(), novelWalk(d); got != want {
			t.Fatalf("NovelSignatures = %d, the clusters hold %d non-filtered", got, want)
		}
	}
}

// novelWalk counts the non-filtered clusters: what NovelSignatures
// computed by walking the cluster map before it became a counter.
func novelWalk(d *Detector) int {
	n := 0
	for _, r := range d.Unique() {
		if !r.Filtered {
			n++
		}
	}
	return n
}

// TestSkipPrefixMatchesFull: seeded inputs for the property the fuzz
// target explores, including k at and past the shorter trace's end.
func TestSkipPrefixMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, rng.Intn(600))
		rng.Read(data)
		checkSkipMatchesFull(t, data)
	}
	// k >= min(len): nothing is compared, only the length is.
	add := entry(0x100, isa.OpADDI, 0x13)
	for _, k := range []int{1, 2, 5} {
		full, skip := NewDetector(), NewDetector()
		tr := []trace.Entry{add, add}
		full.Analyze(1, tr, tr[:1])
		skip.Observe(1, tr, tr[:1], k)
		if a, b := stateBytes(t, full), stateBytes(t, skip); !bytes.Equal(a, b) {
			t.Errorf("k=%d: %s vs %s", k, a, b)
		}
	}
}

// TestNovelSignaturesCounterMatchesWalk: the maintained count agrees
// with a walk over the clusters after random analyses, after SetState
// onto a detector holding other clusters, and after more analyses.
func TestNovelSignaturesCounterMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	feed := func(d *Detector, tests int) {
		for i := 0; i < tests; i++ {
			data := make([]byte, 200)
			rng.Read(data)
			dut, golden, _ := tracePair(data, 0)
			d.Observe(d.Tests+1, dut, golden, 0)
			if got, want := d.NovelSignatures(), novelWalk(d); got != want {
				t.Fatalf("after %d tests: NovelSignatures = %d, walk %d", d.Tests, got, want)
			}
		}
	}
	for round := 0; round < 20; round++ {
		a, b := NewDetector(), NewDetector()
		feed(a, 1+rng.Intn(40))
		feed(b, 1+rng.Intn(40))
		b.SetState(a.State())
		if got, want := b.NovelSignatures(), novelWalk(a); got != want {
			t.Fatalf("after SetState: NovelSignatures = %d, want %d", got, want)
		}
		feed(b, 10)
	}
}

// FuzzAnalyzeSkipMatchesFull: for arbitrary trace pairs whose first k
// entries are equal, skipping k entries leaves the state comparing
// from entry 0 leaves, byte for byte.
func FuzzAnalyzeSkipMatchesFull(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+rng.Intn(400))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{31, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) { checkSkipMatchesFull(t, data) })
}
