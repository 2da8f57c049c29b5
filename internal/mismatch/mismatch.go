// Package mismatch implements the paper's Mismatch Detector (§IV-A):
// differential comparison of the DUT commit trace against the golden
// model's, filtration of known false positives (e.g. reads of the
// cycle/time CSRs, which legitimately differ between an ISS and RTL),
// automated clustering of raw mismatches into unique signatures, and
// classification of signatures into the known findings (Bug1, Bug2,
// Findings 1–3).
//
//chatfuzz:deterministic package
package mismatch

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

// Kind is the category of a single trace divergence.
type Kind int

// Divergence kinds, ordered roughly by diagnostic precision.
const (
	KindNone        Kind = iota
	KindStaleFetch       // same PC, different instruction word (I$ incoherence)
	KindRdWrite          // one trace reports a register write, the other does not
	KindRdValue          // both report the write, values differ
	KindCause            // both trap, cause differs
	KindTrap             // one traps, the other does not
	KindMemEffect        // memory address/write flag differs
	KindControlFlow      // PC differs: alignment lost
	KindLength           // one trace ended early
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindStaleFetch:
		return "stale-fetch"
	case KindRdWrite:
		return "rd-write-presence"
	case KindRdValue:
		return "rd-value"
	case KindCause:
		return "trap-cause"
	case KindTrap:
		return "trap-presence"
	case KindMemEffect:
		return "mem-effect"
	case KindControlFlow:
		return "control-flow"
	case KindLength:
		return "trace-length"
	}
	return "none"
}

// Finding identifies a classified root cause.
type Finding int

// The paper's findings plus the unknown/false-positive buckets.
const (
	FindingUnknown       Finding = iota
	FindingBug1                  // FENCE.I / I-cache coherency (CWE-1202)
	FindingBug2                  // tracer omits MUL/DIV writeback (CWE-440)
	Finding1                     // exception priority inversion
	Finding2                     // AMO with rd=x0 visible in trace
	Finding3                     // load to x0 visible in trace
	FindingFalsePositive         // filtered (e.g. cycle CSR reads)
)

// String returns the paper's name for the finding.
func (f Finding) String() string {
	switch f {
	case FindingBug1:
		return "Bug1: FENCE.I cache coherency (CWE-1202)"
	case FindingBug2:
		return "Bug2: tracer omits MUL/DIV rd write (CWE-440)"
	case Finding1:
		return "Finding1: exception priority inversion"
	case Finding2:
		return "Finding2: AMO with rd=x0 in trace"
	case Finding3:
		return "Finding3: trace write to x0"
	case FindingFalsePositive:
		return "false positive (filtered)"
	}
	return "unknown"
}

// Mismatch is one raw divergence between aligned trace entries.
type Mismatch struct {
	Test      int // test index, assigned by the caller
	Index     int // entry index within the trace
	Kind      Kind
	DUT       trace.Entry
	Golden    trace.Entry
	Signature string
	Finding   Finding
	Filtered  bool
}

// cycleCSRRead is the detector's false-positive filter (paper §IV-A:
// verification engineers suppress expected ISS-vs-RTL differences): it
// flags divergences on reads of the cycle, time and mcycle CSRs, which
// the ISS counts in instructions and the DUT in real cycles, so they
// legitimately differ. Only the golden entry is read.
func cycleCSRRead(golden *trace.Entry) bool {
	if !golden.Op.Is(isa.ClassCSR) {
		return false
	}
	inst := isa.Decode(golden.Raw)
	switch inst.CSR {
	case isa.CSRCycle, isa.CSRTime, isa.CSRMCycle:
		return true
	}
	return false
}

// Record aggregates all raw mismatches sharing one signature.
type Record struct {
	Signature string
	Kind      Kind
	Finding   Finding
	Count     int
	Filtered  bool
	Example   Mismatch
}

// Detector accumulates differential results across a fuzzing campaign.
type Detector struct {
	unique map[string]*Record
	novel  int    // non-filtered records in unique (NovelSignatures)
	sig    []byte // scratch: the signature being looked up

	Tests       int
	RawCount    int
	FilteredRaw int
}

// NewDetector returns an empty detector.
func NewDetector() *Detector {
	return &Detector{unique: make(map[string]*Record)}
}

// appendSignature appends the clustering key to b: mismatches with the
// same kind, opcode, and cause/register fingerprint are instances of
// the same underlying issue. A trace-length mismatch has no aligned
// entry to fingerprint and is keyed by its kind alone.
func appendSignature(b []byte, k Kind, dut, golden *trace.Entry) []byte {
	b = append(b, k.String()...)
	if k == KindLength {
		return b
	}
	b = append(append(b, '|'), golden.Op.String()...)
	switch k {
	case KindCause:
		b = strconv.AppendUint(append(b, '|'), dut.Cause, 10)
		b = strconv.AppendUint(append(b, "-vs-"...), golden.Cause, 10)
	case KindRdWrite:
		b = strconv.AppendBool(append(b, "|dut="...), dut.RdValid)
		b = strconv.AppendUint(append(b, ",x"...), uint64(dut.Rd), 10)
	case KindTrap:
		b = strconv.AppendBool(append(b, "|dut="...), dut.Trap)
	}
	return b
}

// classify maps a divergence onto the known findings.
func classify(k Kind, dut, golden *trace.Entry) Finding {
	op := golden.Op
	switch k {
	case KindStaleFetch:
		return FindingBug1
	case KindRdWrite:
		switch {
		case golden.RdValid && !dut.RdValid && op.IsAny(isa.ClassMul|isa.ClassDiv):
			return FindingBug2
		case dut.RdValid && dut.Rd == 0 && op.Is(isa.ClassAMO):
			return Finding2
		case dut.RdValid && dut.Rd == 0 && op.Is(isa.ClassLoad):
			return Finding3
		}
	case KindCause:
		mis := func(c uint64) bool {
			return c == isa.ExcLoadAddrMisaligned || c == isa.ExcStoreAddrMisaligned
		}
		acc := func(c uint64) bool {
			return c == isa.ExcLoadAccessFault || c == isa.ExcStoreAccessFault
		}
		if acc(dut.Cause) && mis(golden.Cause) {
			return Finding1
		}
	}
	return FindingUnknown
}

// diffKind determines how two aligned entries diverge.
func diffKind(d, g *trace.Entry) Kind {
	switch {
	case *d == *g:
		return KindNone
	case d.PC != g.PC:
		return KindControlFlow
	case d.Raw != g.Raw:
		return KindStaleFetch
	case d.Trap != g.Trap:
		return KindTrap
	case d.Trap && d.Cause != g.Cause:
		return KindCause
	case d.RdValid != g.RdValid:
		return KindRdWrite
	case d.RdValid && (d.Rd != g.Rd || d.RdVal != g.RdVal):
		return KindRdValue
	case d.MemValid != g.MemValid || d.MemAddr != g.MemAddr || d.MemWrite != g.MemWrite:
		return KindMemEffect
	default:
		return KindRdValue // tval/priv and other field drift
	}
}

// SkipTest accounts a test that produced no traces to compare (e.g. a
// program the harness refused to build). It keeps the detector's test
// count aligned with the campaign's test numbering, so a finding's
// Test field never exceeds the detector's own reported test total.
func (d *Detector) SkipTest() { d.Tests++ }

// Analyze compares one test's DUT and golden traces, records every raw
// divergence up to the point where instruction alignment is lost, and
// returns them. Once a filtered (false-positive) divergence occurs,
// the remainder of the test is tainted: downstream divergences are
// cascades of the filtered difference and are filtered too.
func (d *Detector) Analyze(test int, dut, golden []trace.Entry) []Mismatch {
	var out []Mismatch
	d.compare(test, dut, golden, 0, &out)
	return out
}

// Observe records what Analyze records and returns nothing — the form
// for a caller that keeps only the detector's accumulated state. The
// first same entries of the two traces must be known identical (the
// harness prologue both simulators copied from their checkpoints), and
// are not compared again. A signature string is allocated only for a
// new cluster.
func (d *Detector) Observe(test int, dut, golden []trace.Entry, same int) {
	d.compare(test, dut, golden, same, nil)
}

// compare is the detector's one comparison loop, started at entry i:
// every entry before it must be equal in both traces. out, when
// non-nil, collects the raw mismatches.
func (d *Detector) compare(test int, dut, golden []trace.Entry, i int, out *[]Mismatch) {
	d.Tests++
	n := min(len(dut), len(golden))
	found, tainted := false, false
	for ; i < n; i++ {
		dv, gv := &dut[i], &golden[i]
		k := diffKind(dv, gv)
		if k == KindNone {
			continue
		}
		if !tainted && cycleCSRRead(gv) {
			tainted = true
		}
		d.record(test, i, k, dv, gv, tainted, out)
		found = true
		// Alignment is lost after control-flow or stale-fetch
		// divergence: stop comparing this test.
		if k == KindControlFlow || k == KindStaleFetch {
			break
		}
	}
	if !found && len(dut) != len(golden) {
		var dv, gv trace.Entry
		if n > 0 {
			dv, gv = dut[n-1], golden[n-1]
		}
		d.record(test, n, KindLength, &dv, &gv, tainted, out)
	}
}

// record accounts one raw mismatch into its cluster, and appends it to
// out when out is non-nil.
func (d *Detector) record(test, index int, k Kind, dut, golden *trace.Entry, filtered bool, out *[]Mismatch) {
	d.RawCount++
	if filtered {
		d.FilteredRaw++
	}
	d.sig = appendSignature(d.sig[:0], k, dut, golden)
	r := d.unique[string(d.sig)] // the lookup does not allocate
	// A non-filtered instance upgrades a previously filtered record.
	upgrade := r != nil && r.Filtered && !filtered
	if r == nil || upgrade || out != nil {
		m := Mismatch{Test: test, Index: index, Kind: k, DUT: *dut, Golden: *golden,
			Finding: FindingFalsePositive, Filtered: filtered}
		if !filtered {
			m.Finding = classify(k, dut, golden)
		}
		switch {
		case r == nil:
			m.Signature = string(d.sig)
			r = &Record{Signature: m.Signature, Kind: k, Finding: m.Finding, Filtered: filtered, Example: m}
			d.unique[m.Signature] = r
			if !filtered {
				d.novel++
			}
		case upgrade:
			m.Signature = r.Signature
			r.Filtered, r.Finding, r.Example = false, m.Finding, m
			d.novel++
		default:
			m.Signature = r.Signature
		}
		if out != nil {
			*out = append(*out, m)
		}
	}
	r.Count++
}

// State is the detector's serializable form: the counters plus the
// clustered records in Unique() order (deterministic, so identical
// detectors checkpoint to identical bytes). Every field of a Record —
// including the trace entries of its example — is plain data, so State
// marshals directly to JSON and round-trips exactly. A campaign
// checkpoint writes it with AppendState and reads it back as a State;
// json.Marshal of a State is the oracle AppendState is held to.
type State struct {
	Tests       int
	RawCount    int
	FilteredRaw int
	Records     []Record
}

// State captures the detector for a campaign checkpoint.
func (d *Detector) State() State {
	st := State{Tests: d.Tests, RawCount: d.RawCount, FilteredRaw: d.FilteredRaw}
	for _, r := range d.Unique() {
		st.Records = append(st.Records, *r)
	}
	return st
}

// AppendState appends json.Marshal(d.State()) to dst, read straight off
// the live records in Unique() order: a checkpoint writer pays neither
// the record copies nor the reflection walk. Everything but the two
// signature strings is an integer or a bool; a detector with no records
// writes "Records":null, as State's nil slice marshals.
func (d *Detector) AppendState(dst []byte) []byte {
	dst = append(dst, `{"Tests":`...)
	dst = strconv.AppendInt(dst, int64(d.Tests), 10)
	dst = append(dst, `,"RawCount":`...)
	dst = strconv.AppendInt(dst, int64(d.RawCount), 10)
	dst = append(dst, `,"FilteredRaw":`...)
	dst = strconv.AppendInt(dst, int64(d.FilteredRaw), 10)
	dst = append(dst, `,"Records":`...)
	if len(d.unique) == 0 {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i, r := range d.Unique() {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Signature":`...)
		dst = appendJSONString(dst, r.Signature)
		dst = append(dst, `,"Kind":`...)
		dst = strconv.AppendInt(dst, int64(r.Kind), 10)
		dst = append(dst, `,"Finding":`...)
		dst = strconv.AppendInt(dst, int64(r.Finding), 10)
		dst = append(dst, `,"Count":`...)
		dst = strconv.AppendInt(dst, int64(r.Count), 10)
		dst = append(dst, `,"Filtered":`...)
		dst = strconv.AppendBool(dst, r.Filtered)
		dst = append(dst, `,"Example":`...)
		dst = appendMismatch(dst, &r.Example)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// appendMismatch appends json.Marshal(*m).
func appendMismatch(dst []byte, m *Mismatch) []byte {
	dst = append(dst, `{"Test":`...)
	dst = strconv.AppendInt(dst, int64(m.Test), 10)
	dst = append(dst, `,"Index":`...)
	dst = strconv.AppendInt(dst, int64(m.Index), 10)
	dst = append(dst, `,"Kind":`...)
	dst = strconv.AppendInt(dst, int64(m.Kind), 10)
	dst = append(dst, `,"DUT":`...)
	dst = appendEntry(dst, &m.DUT)
	dst = append(dst, `,"Golden":`...)
	dst = appendEntry(dst, &m.Golden)
	dst = append(dst, `,"Signature":`...)
	dst = appendJSONString(dst, m.Signature)
	dst = append(dst, `,"Finding":`...)
	dst = strconv.AppendInt(dst, int64(m.Finding), 10)
	dst = append(dst, `,"Filtered":`...)
	dst = strconv.AppendBool(dst, m.Filtered)
	return append(dst, '}')
}

// appendEntry appends json.Marshal(*e): trace.Entry's fields in
// declaration order, none of whose types has a JSON method of its own.
func appendEntry(dst []byte, e *trace.Entry) []byte {
	dst = append(dst, `{"PC":`...)
	dst = strconv.AppendUint(dst, e.PC, 10)
	dst = append(dst, `,"Raw":`...)
	dst = strconv.AppendUint(dst, uint64(e.Raw), 10)
	dst = append(dst, `,"Op":`...)
	dst = strconv.AppendUint(dst, uint64(e.Op), 10)
	dst = append(dst, `,"RdValid":`...)
	dst = strconv.AppendBool(dst, e.RdValid)
	dst = append(dst, `,"Rd":`...)
	dst = strconv.AppendUint(dst, uint64(e.Rd), 10)
	dst = append(dst, `,"RdVal":`...)
	dst = strconv.AppendUint(dst, e.RdVal, 10)
	dst = append(dst, `,"MemValid":`...)
	dst = strconv.AppendBool(dst, e.MemValid)
	dst = append(dst, `,"MemAddr":`...)
	dst = strconv.AppendUint(dst, e.MemAddr, 10)
	dst = append(dst, `,"MemWrite":`...)
	dst = strconv.AppendBool(dst, e.MemWrite)
	dst = append(dst, `,"Trap":`...)
	dst = strconv.AppendBool(dst, e.Trap)
	dst = append(dst, `,"Cause":`...)
	dst = strconv.AppendUint(dst, e.Cause, 10)
	dst = append(dst, `,"TVal":`...)
	dst = strconv.AppendUint(dst, e.TVal, 10)
	dst = append(dst, `,"Priv":`...)
	dst = strconv.AppendUint(dst, uint64(e.Priv), 10)
	return append(dst, '}')
}

// appendJSONString appends json.Marshal(s). A string of bytes that
// encoding/json writes verbatim — printable ASCII other than '"', '\\'
// and the HTML-escaped '<', '>' and '&' — is quoted as it is, which is
// every signature the detector builds; anything else goes through
// json.Marshal itself.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// SetState restores a checkpointed detector: counters and clustered
// records replace the current contents. A resumed fleet therefore reports
// cumulative findings across the pause instead of restarting at zero.
func (d *Detector) SetState(st State) {
	d.Tests = st.Tests
	d.RawCount = st.RawCount
	d.FilteredRaw = st.FilteredRaw
	d.unique = make(map[string]*Record, len(st.Records))
	d.novel = 0
	for i := range st.Records {
		r := st.Records[i]
		d.unique[r.Signature] = &r
		if !r.Filtered {
			d.novel++
		}
	}
}

// NovelSignatures returns the number of unique non-filtered mismatch
// signatures observed so far — the detector's cluster count after
// filtration. Unlike RawCount it grows only when a *new* kind of
// divergence appears (or a previously filtered cluster is upgraded by
// a non-filtered instance), which makes it the right currency for
// novelty rewards: a noisy divergence repeating one signature moves
// RawCount every test but NovelSignatures only once. It never
// decreases, and it is derivable from State, so checkpoints need no
// extra field.
func (d *Detector) NovelSignatures() int { return d.novel }

// Unique returns the clustered mismatch records, most frequent first.
func (d *Detector) Unique() []*Record {
	out := make([]*Record, 0, len(d.unique))
	for _, r := range d.unique {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Findings returns the set of classified findings that have at least
// one non-filtered record.
func (d *Detector) Findings() map[Finding]int {
	out := make(map[Finding]int)
	// Commutative integer sums bucketed by finding: iteration order
	// cannot reach the totals.
	//lint:allow mapiter order-insensitive commutative sum
	for _, r := range d.unique {
		if !r.Filtered && r.Finding != FindingUnknown {
			out[r.Finding] += r.Count
		}
	}
	return out
}

// Report renders the campaign summary in the shape of the paper's
// §V-B: raw disparities, unique mismatches after automated filtration,
// and the classified findings.
func (d *Detector) Report() string {
	var b strings.Builder
	uniq := d.Unique()
	nonFiltered := 0
	for _, r := range uniq {
		if !r.Filtered {
			nonFiltered++
		}
	}
	fmt.Fprintf(&b, "mismatch detection over %d tests\n", d.Tests)
	fmt.Fprintf(&b, "  raw mismatches:        %d (%d filtered as false positives)\n",
		d.RawCount, d.FilteredRaw)
	fmt.Fprintf(&b, "  unique signatures:     %d (%d after filtration)\n", len(uniq), nonFiltered)
	fmt.Fprintf(&b, "  classified findings:\n")
	for f := FindingBug1; f <= Finding3; f++ {
		n := 0
		for _, r := range uniq {
			if r.Finding == f && !r.Filtered {
				n += r.Count
			}
		}
		mark := " "
		if n > 0 {
			mark = "x"
		}
		fmt.Fprintf(&b, "    [%s] %-48s %6d instances\n", mark, f, n)
	}
	return b.String()
}
