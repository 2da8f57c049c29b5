package uarch

import (
	"bytes"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

// Core is the five blocks both core models are built from.
type Core struct {
	IC  *ICache
	DC  *TimingCache
	BHT *BHT
	BTB *BTB
	RAS *RAS
}

// NewCore returns the blocks of a core out of reset.
func NewCore(icache, dcache CacheConfig, bht, btb, ras int) Core {
	return Core{NewICache(icache), NewTimingCache(dcache), NewBHT(bht), NewBTB(btb), NewRAS(ras)}
}

// Reset restores every block's freshly-constructed state.
func (c Core) Reset() {
	c.IC.Reset()
	c.DC.Reset()
	c.BHT.Reset()
	c.BTB.Reset()
	c.RAS.Reset()
}

// copyFrom makes c's blocks copies of src's, whose valid I-cache lines
// lines lists.
func (c Core) copyFrom(src Core, lines []int) {
	c.IC.CopyFrom(src.IC, lines)
	c.DC.CopyFrom(src.DC)
	c.BHT.CopyFrom(src.BHT)
	c.BTB.CopyFrom(src.BTB)
	c.RAS.CopyFrom(src.RAS)
}

// Checkpoint is what a runner keeps of the one run it made from reset
// to the first program-specific instruction of a harness image: the
// blocks, the coverage words and the commit trace at that PC. (The
// model keeps its architectural and pipeline state beside it.)
//
// Resuming from it is exact because a run from reset is a function of
// the reset state, the same every run, and of the memory bytes it
// reads. Capture accepts a prologue only when it read memory through
// I-cache line fills alone, wrote nothing and still holds every line it
// filled; Usable compares those lines with the memory of the run about
// to start. Equal bytes mean the prologue would reach this very state
// again; a foreign or patched harness fails the compare and runs from
// reset.
type Checkpoint struct {
	entry, pc uint64
	ok        bool // the prologue was clean; false never resumes
	core      Core
	lines     []int // the I-cache lines the prologue filled
	covWords  []uint64
	trace     []trace.Entry
	line      []byte // scratch: one line of memory
}

// Capture checkpoints c after a run that entered at entry, recorded its
// coverage in prologue and its trace in tr, and stands at pc; it ORs
// prologue into set, where the rest of the run records. reached says
// the run arrived at pc without halting. The checkpoint is usable iff,
// besides, no instruction trapped, touched data memory or left M-mode,
// the D-cache was never accessed, and every I-cache line filled is
// still valid (no FENCE.I, no eviction).
func Capture(c Core, entry, pc uint64, reached bool, prologue, set *cov.Set, tr []trace.Entry) *Checkpoint {
	k := &Checkpoint{entry: entry, pc: pc, ok: reached && c.DC.tick == 0, covWords: prologue.Snapshot()}
	k.mergeCov(set)
	for i := range c.IC.lines {
		if c.IC.lines[i].valid {
			k.lines = append(k.lines, i)
		}
	}
	k.ok = k.ok && len(k.lines) == c.IC.fills
	for i := range tr {
		k.ok = k.ok && !tr[i].Trap && !tr[i].MemValid && tr[i].Priv == isa.PrivM
	}
	if k.ok {
		k.core = NewCore(c.IC.cfg, c.DC.cfg, len(c.BHT.counters), len(c.BTB.tags), c.RAS.depth)
		k.core.copyFrom(c, k.lines)
		k.trace = append(k.trace, tr...)
		k.line = make([]byte, c.IC.cfg.LineBytes)
	}
	return k
}

// Usable reports whether a run of at most maxInsts instructions, from
// entry over the image m holds with its first program-specific
// instruction at body, passes through the checkpointed state: the PCs
// match, the budget reaches past the prologue, and m equals every
// checkpointed I-cache line byte for byte. A nil checkpoint is not.
func (k *Checkpoint) Usable(entry, body uint64, maxInsts int, m MemReader) bool {
	if k == nil || !k.ok || entry != k.entry || body != k.pc || maxInsts <= len(k.trace) {
		return false
	}
	for _, i := range k.lines {
		m.ReadLine(k.core.IC.lines[i].tag, k.line)
		if !bytes.Equal(k.line, k.core.IC.lineData(i)) {
			return false
		}
	}
	return true
}

// Restore puts c's blocks in the checkpointed state, ORs the prologue's
// coverage into set — the effect of the Cond calls it replaces,
// whatever set held — and returns tr[:0] with the prologue's trace
// appended. set may belong to any space structurally identical to the
// capturing core's.
func (k *Checkpoint) Restore(c Core, set *cov.Set, tr []trace.Entry) []trace.Entry {
	c.copyFrom(k.core, k.lines)
	k.mergeCov(set)
	return append(tr[:0], k.trace...)
}

func (k *Checkpoint) mergeCov(set *cov.Set) {
	if _, err := set.MergeWords(k.covWords); err != nil {
		panic("uarch: coverage set of a different design: " + err.Error())
	}
}
