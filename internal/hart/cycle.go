package hart

import (
	"chatfuzz/internal/isa"
	"chatfuzz/internal/trace"
)

// A simulation is a function of its state and of the memory it reads.
// A run that has written no memory and read no counter since some
// step, and whose state is back where it was after that step — Cycle
// and Instret aside, which only count — repeats the steps in between
// for as long as its budget lasts: same entries, same coverage, every
// counter advancing by the same amount each period. Periodic trap
// storms are the common case (mtvec at an illegal word traps to itself
// every step), and they run to the step budget. The ISS and both core
// models find such a cycle with Marks and complete the run by copy: the
// whole remaining periods are appended to the trace and added to the
// counters, and the last partial period is stepped as usual. What the
// run reports is identical to stepping it out.

// firstMark is the step after which a run takes its first mark: a test
// that halts sooner, as nearly all do, pays nothing for the check.
const firstMark = 64

// Marks schedules the cycle check of one run, Brent-style: a mark is
// taken after every power-of-two step from firstMark on, and while the
// run stays clean the state after each later step is compared with the
// one at the mark. A cycle of period p entered by step s is found by
// step 2·max(s, p+1, firstMark) + p.
type Marks struct {
	At    int  // the step the standing mark was taken after; 0: none
	clean bool // no step since the mark wrote memory or read a counter
}

// Take reports whether the run takes a mark after step i (counted from
// 1) and, if so, stands it there.
func (m *Marks) Take(i int) bool {
	if i < firstMark || i&(i-1) != 0 {
		return false
	}
	m.At, m.clean = i, true
	return true
}

// Clean records e, the entry of the step just taken, and reports
// whether the run can still be back at the standing mark.
func (m *Marks) Clean(e *trace.Entry) bool {
	m.clean = m.clean && !e.MemWrite && !readsCounter(e)
	return m.clean
}

// Drop removes the standing mark.
func (m *Marks) Drop() { *m = Marks{} }

// readsCounter reports whether e is a CSR access to a counter
// (0xB00-0xCFF: mcycle, minstret, cycle, time, instret and the
// unimplemented rest), whose value a later period would read changed.
// Every such access is counted, including one that traps.
func readsCounter(e *trace.Entry) bool {
	csr := e.Raw >> 20
	return e.Op.Is(isa.ClassCSR) && (csr>>8 == 0xB || csr>>8 == 0xC)
}

// SameState reports whether c and d agree in everything but the
// counters Cycle and Instret.
func (c *CSRFile) SameState(d *CSRFile) bool {
	x, y := *c, *d
	x.Cycle, x.Instret, y.Cycle, y.Instret = 0, 0, 0, 0
	return x == y
}

// Repeat advances the counters by n more periods of what they advanced
// since was.
func (c *CSRFile) Repeat(was *CSRFile, n uint64) {
	c.Cycle += n * (c.Cycle - was.Cycle)
	c.Instret += n * (c.Instret - was.Instret)
}
