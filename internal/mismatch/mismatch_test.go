package mismatch

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

func entry(pc uint64, op isa.Op, raw uint32) trace.Entry {
	return trace.Entry{PC: pc, Op: op, Raw: raw, Priv: isa.PrivM}
}

func TestNoMismatchOnIdenticalTraces(t *testing.T) {
	d := NewDetector()
	tr := []trace.Entry{entry(0x100, isa.OpADDI, 0x13), entry(0x104, isa.OpADD, 0x33)}
	ms := d.Analyze(0, tr, tr)
	if len(ms) != 0 || d.RawCount != 0 {
		t.Errorf("identical traces produced %d mismatches", len(ms))
	}
}

func TestKindClassification(t *testing.T) {
	g := entry(0x100, isa.OpMUL, 0x02B50533)
	g.RdValid, g.Rd, g.RdVal = true, isa.A0, 42
	dut := entry(0x100, isa.OpMUL, 0x02B50533) // no rd write: Bug2

	d := NewDetector()
	ms := d.Analyze(0, []trace.Entry{dut}, []trace.Entry{g})
	if len(ms) != 1 {
		t.Fatalf("want 1 mismatch, got %d", len(ms))
	}
	if ms[0].Kind != KindRdWrite {
		t.Errorf("kind = %v, want rd-write-presence", ms[0].Kind)
	}
	if ms[0].Finding != FindingBug2 {
		t.Errorf("finding = %v, want Bug2", ms[0].Finding)
	}
}

func TestFinding1Classification(t *testing.T) {
	g := entry(0x100, isa.OpLW, 0)
	g.Trap, g.Cause = true, isa.ExcLoadAddrMisaligned
	dut := entry(0x100, isa.OpLW, 0)
	dut.Trap, dut.Cause = true, isa.ExcLoadAccessFault

	d := NewDetector()
	ms := d.Analyze(0, []trace.Entry{dut}, []trace.Entry{g})
	if ms[0].Kind != KindCause || ms[0].Finding != Finding1 {
		t.Errorf("got kind=%v finding=%v", ms[0].Kind, ms[0].Finding)
	}
}

func TestStaleFetchStopsComparison(t *testing.T) {
	g1 := entry(0x100, isa.OpADDI, 0x00100093)
	d1 := entry(0x100, isa.OpADDI, 0x00200093) // different word fetched
	g2 := entry(0x104, isa.OpADD, 0x33)
	d2 := entry(0x200, isa.OpSUB, 0x44) // nonsense afterwards

	d := NewDetector()
	ms := d.Analyze(0, []trace.Entry{d1, d2}, []trace.Entry{g1, g2})
	if len(ms) != 1 {
		t.Fatalf("comparison must stop after stale fetch; got %d mismatches", len(ms))
	}
	if ms[0].Kind != KindStaleFetch || ms[0].Finding != FindingBug1 {
		t.Errorf("got %v/%v, want stale-fetch/Bug1", ms[0].Kind, ms[0].Finding)
	}
}

func TestCycleCSRFilterAndTaint(t *testing.T) {
	raw := isa.EncCSR(isa.OpCSRRS, isa.A0, 0, isa.CSRMCycle)
	g1 := entry(0x100, isa.OpCSRRS, raw)
	g1.RdValid, g1.Rd, g1.RdVal = true, isa.A0, 10
	d1 := g1
	d1.RdVal = 99 // cycle counts differ: expected

	g2 := entry(0x104, isa.OpADDI, 0x13)
	g2.RdValid, g2.Rd, g2.RdVal = true, isa.A1, 11
	d2 := g2
	d2.RdVal = 100 // cascade of the filtered divergence

	d := NewDetector()
	ms := d.Analyze(0, []trace.Entry{d1, d2}, []trace.Entry{g1, g2})
	if len(ms) != 2 {
		t.Fatalf("want 2 raw mismatches, got %d", len(ms))
	}
	for i, m := range ms {
		if !m.Filtered || m.Finding != FindingFalsePositive {
			t.Errorf("mismatch %d should be filtered (taint), got %+v", i, m.Finding)
		}
	}
	if d.FilteredRaw != 2 {
		t.Errorf("FilteredRaw = %d, want 2", d.FilteredRaw)
	}
}

func TestUniqueClustering(t *testing.T) {
	d := NewDetector()
	// Ten instances of the same Bug2 signature across tests.
	for i := 0; i < 10; i++ {
		g := entry(uint64(0x100+4*i), isa.OpMUL, 0x02B50533)
		g.RdValid, g.Rd, g.RdVal = true, isa.A0, uint64(i)
		dut := g
		dut.RdValid, dut.Rd, dut.RdVal = false, 0, 0
		d.Analyze(i, []trace.Entry{dut}, []trace.Entry{g})
	}
	uniq := d.Unique()
	if len(uniq) != 1 {
		t.Fatalf("want 1 unique signature, got %d", len(uniq))
	}
	if uniq[0].Count != 10 {
		t.Errorf("count = %d, want 10", uniq[0].Count)
	}
	if d.RawCount != 10 {
		t.Errorf("raw = %d, want 10", d.RawCount)
	}
}

func TestTraceLengthMismatch(t *testing.T) {
	d := NewDetector()
	g := []trace.Entry{entry(0x100, isa.OpADDI, 0x13), entry(0x104, isa.OpADDI, 0x13)}
	ms := d.Analyze(0, g[:1], g)
	if len(ms) != 1 || ms[0].Kind != KindLength {
		t.Fatalf("want trace-length mismatch, got %+v", ms)
	}
}

// TestStateRoundTrip: a detector serialized through State/SetState
// (and through JSON, as campaign checkpoints do) must report
// identically to the original, checkpoint to the same bytes, and keep
// accumulating correctly.
func TestStateRoundTrip(t *testing.T) {
	d := NewDetector()
	g1 := entry(0x100, isa.OpMUL, 0x02B50533)
	g1.RdValid, g1.Rd, g1.RdVal = true, isa.A0, 42
	d1 := entry(0x100, isa.OpMUL, 0x02B50533)
	d.Analyze(1, []trace.Entry{d1}, []trace.Entry{g1})
	d.Analyze(2, []trace.Entry{d1}, []trace.Entry{g1})
	d.SkipTest()
	// Every kind of cluster, filtered and upgraded ones among them.
	rng := rand.New(rand.NewSource(3))
	random := make([][2][]trace.Entry, 80)
	for i := range random {
		data := make([]byte, 200)
		rng.Read(data)
		random[i][0], random[i][1], _ = tracePair(data, 0)
	}
	for _, p := range random[:60] {
		d.Analyze(d.Tests+1, p[0], p[1])
	}

	raw, err := json.Marshal(d.State())
	if err != nil {
		t.Fatalf("marshal state: %v", err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	d2 := NewDetector()
	d2.SetState(st)
	bug2 := func(d *Detector) int {
		for _, r := range d.Unique() {
			if r.Signature == "rd-write-presence|mul|dut=false,x0" {
				return r.Count
			}
		}
		return 0
	}
	n := bug2(d)
	if n < 2 {
		t.Fatalf("Bug2 cluster counts %d before restore, want at least 2", n)
	}

	if d2.Tests != d.Tests || d2.RawCount != d.RawCount || d2.FilteredRaw != d.FilteredRaw {
		t.Errorf("counters differ after restore: %d/%d/%d vs %d/%d/%d",
			d2.Tests, d2.RawCount, d2.FilteredRaw, d.Tests, d.RawCount, d.FilteredRaw)
	}
	if d2.Report() != d.Report() {
		t.Errorf("report differs after restore:\n%s\nvs\n%s", d2.Report(), d.Report())
	}
	if got := stateBytes(t, d2); !bytes.Equal(got, raw) {
		t.Errorf("restored state checkpoints differently:\n%s\nvs\n%s", got, raw)
	}

	// The restored detector must keep clustering into the same records.
	d.Analyze(d.Tests+1, []trace.Entry{d1}, []trace.Entry{g1})
	d2.Analyze(d2.Tests+1, []trace.Entry{d1}, []trace.Entry{g1})
	if d2.Report() != d.Report() {
		t.Errorf("report diverges after further analysis:\n%s\nvs\n%s", d2.Report(), d.Report())
	}
	if got := bug2(d2); got != n+1 {
		t.Fatalf("restored detector's Bug2 cluster counts %d, want %d", got, n+1)
	}
	for _, p := range random[60:] {
		d.Analyze(d.Tests+1, p[0], p[1])
		d2.Analyze(d2.Tests+1, p[0], p[1])
	}
	if !bytes.Equal(stateBytes(t, d), stateBytes(t, d2)) {
		t.Error("restored detector diverged after further analysis")
	}
}

func TestNovelSignaturesCountsClustersNotRepeats(t *testing.T) {
	d := NewDetector()
	if d.NovelSignatures() != 0 {
		t.Fatal("fresh detector reports novel signatures")
	}
	// Ten repeats of one divergence: one cluster, one novel signature.
	for i := 0; i < 10; i++ {
		g := entry(uint64(0x100+4*i), isa.OpMUL, 0x02B50533)
		g.RdValid, g.Rd, g.RdVal = true, isa.A0, uint64(i)
		dut := g
		dut.RdValid, dut.Rd, dut.RdVal = false, 0, 0
		d.Analyze(i, []trace.Entry{dut}, []trace.Entry{g})
	}
	if got := d.NovelSignatures(); got != 1 {
		t.Errorf("after 10 repeats, NovelSignatures = %d, want 1", got)
	}
	// A filtered divergence (cycle CSR read) must not count as novel.
	csr := uint32(0xC0002573) // rdcycle a0
	g := entry(0x200, isa.OpCSRRS, csr)
	g.RdValid, g.Rd, g.RdVal = true, isa.A0, 7
	dut := g
	dut.RdVal = 9
	d.Analyze(20, []trace.Entry{dut}, []trace.Entry{g})
	if got := d.NovelSignatures(); got != 1 {
		t.Errorf("filtered divergence changed NovelSignatures to %d, want 1", got)
	}
	// A genuinely different cluster counts again, and the counter
	// round-trips through checkpoint state.
	g2 := entry(0x300, isa.OpADD, 0x33)
	dut2 := g2
	dut2.Trap, dut2.Cause = true, 2
	d.Analyze(21, []trace.Entry{dut2}, []trace.Entry{g2})
	if got := d.NovelSignatures(); got != 2 {
		t.Errorf("new cluster: NovelSignatures = %d, want 2", got)
	}
	fresh := NewDetector()
	fresh.SetState(d.State())
	if got := fresh.NovelSignatures(); got != 2 {
		t.Errorf("restored detector: NovelSignatures = %d, want 2", got)
	}
}
