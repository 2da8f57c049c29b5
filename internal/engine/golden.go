package engine

import (
	"sync"

	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/trace"
)

// Every image the fuzzers build shares one harness layout, and its
// init section (trap-vector setup plus the register init, 109
// instructions) is program-independent: straight-line, store-free,
// identical PCs and values on every run. Re-executing it on the golden
// model for every test therefore buys nothing. The DUT models need its
// state (cache and predictor warmup is part of their coverage), which
// their runners checkpoint (mem.Image.Body); the ISS needs only the
// registers.
// The prologue state below is computed once per entry PC: the
// architectural snapshot at the first body instruction, and the
// prologue's commit-trace entries, which every golden run replays by
// copy instead of by execution.
//
// It is keyed by the image's entry PC, the only axis on which images
// can differ before the body, and by nothing else: the ISS knows no
// design, so GoldenRun takes none and is the one function every
// executor runs — pool workers, committers and the serial oracle.
type prologue struct {
	ok    bool
	snap  iss.Snapshot
	trace []trace.Entry
}

var (
	prologueMu sync.Mutex
	prologues  = make(map[uint64]*prologue)
)

// prologueFor returns the (possibly negative) cached prologue state
// for images entering at entry.
func prologueFor(entry uint64) *prologue {
	prologueMu.Lock()
	defer prologueMu.Unlock()
	if p, ok := prologues[entry]; ok {
		return p
	}
	p := buildPrologue(entry)
	prologues[entry] = p
	return p
}

func buildPrologue(entry uint64) *prologue {
	img, layout := prog.MustBuild(prog.Program{})
	p := &prologue{}
	if entry != img.Entry {
		// Not a standard-harness image: no prologue to skip. The
		// negative result is cached so foreign entry points stay a
		// single map hit.
		return p
	}
	m := mem.Platform()
	m.Load(img)
	s := iss.New(m, img.Entry)
	// The init section fits its 0x400-byte slot, so well under 1024
	// steps reach the body; bail out (and fall back to full golden
	// runs) if the prologue ever stops being straight-line.
	for i := 0; i < 1024 && s.PC != layout.BodyBase; i++ {
		e, ok := s.Step()
		if !ok || e.Trap || s.Halted {
			return p
		}
		p.trace = append(p.trace, e)
	}
	if s.PC != layout.BodyBase {
		p.trace = nil
		return p
	}
	p.snap = s.Snapshot()
	p.ok = true
	return p
}

// GoldenRun loads img into m and executes the golden-model ISS for at
// most budget instructions, appending the commit trace to buf[:0]. For
// images built by the standard harness (every fuzzer-generated test)
// the prologue is delta-replayed: its cached trace entries are copied
// and execution starts from the post-prologue snapshot, which skips
// the register-init re-execution on every test. The result is
// bit-identical to a from-reset run — non-harness entry points and
// budgets too small to clear the prologue fall back to one.
func GoldenRun(m *mem.Memory, img mem.Image, budget int, buf []trace.Entry) []trace.Entry {
	tr, _ := goldenRun(m, img, budget, buf)
	return tr
}

// goldenRun is GoldenRun that also returns the prologue entries it
// copied into the trace's head: nil when it ran from reset.
func goldenRun(m *mem.Memory, img mem.Image, budget int, buf []trace.Entry) ([]trace.Entry, []trace.Entry) {
	pro := prologueFor(img.Entry)
	m.Load(img)
	if !pro.ok || budget <= len(pro.trace) {
		return iss.New(m, img.Entry).RunAppend(buf, budget), nil
	}
	entries := append(buf[:0], pro.trace...)
	s := iss.NewFromSnapshot(pro.snap, m)
	return s.Continue(entries, budget-len(pro.trace)), pro.trace
}
