package engine

import (
	"encoding/binary"
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
// Keying: the cache is keyed by the image's entry PC, the only axis on
// which images can differ before the body. It is deliberately NOT
// keyed per design — the prologue is executed on the golden-model ISS,
// whose semantics are design-independent, so a mixed Rocket+BOOM fleet
// sharing one prologue is correct by construction (the audit that
// replaced the old process-global sync.Once found no wrong-prologue
// reuse: the entry guard already rejected foreign images, and no
// design-dependent state exists on the ISS side; the per-design
// isolation that does matter — the snapshot trees below, which cache
// per-program state on shared pool workers — is keyed by design in
// worker.tree). TestGoldenMixedFleetPrologue locks the invariant in.
type prologue struct {
	ok    bool
	snap  iss.Snapshot
	trace []trace.Entry
	body  uint64 // BodyBase: the PC the prologue stepped to
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
	p := &prologue{body: layout.BodyBase}
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
//
// GoldenRun is the reference implementation shared by the serial loop;
// engine workers run the further-optimised goldenRun below (snapshot
// tree + decode cache), which must stay bit-identical to this one.
func GoldenRun(m *mem.Memory, img mem.Image, budget int, buf []trace.Entry) []trace.Entry {
	pro := prologueFor(img.Entry)
	m.Load(img)
	if !pro.ok || budget <= len(pro.trace) {
		return iss.New(m, img.Entry).RunAppend(buf, budget)
	}
	entries := append(buf[:0], pro.trace...)
	s := iss.NewFromSnapshot(pro.snap, m)
	for i := len(pro.trace); i < budget; i++ {
		e, ok := s.Step()
		if !ok {
			break
		}
		entries = append(entries, e)
		if s.Halted {
			break
		}
	}
	return entries
}

// ---- Golden snapshot tree ----
//
// The prologue skip above exploits that every image shares a common
// prefix of executed instructions. The snapshot tree generalises it to
// the bodies themselves: mutation-style generators (TheHuzz, the
// recorded-pool replays) produce families of programs sharing body
// prefixes, and a store-free, straight-line, trap-free prefix executes
// identically on every image that shares it — same pre-state (the
// post-prologue snapshot), same instruction words, and no reads from
// memory that may differ between the images. Workers therefore cache
// mid-body snapshots at a few fixed depths and replay the deepest
// matching prefix by trace copy, exactly like the prologue.
//
// Prefix-safety argument (the invariant FuzzSnapshotTreePrefix
// hammers): two standard-harness images that share the first d body
// words have identical memory everywhere except the half-open text
// interval [BodyBase+4d, TextBase+TextSize) — the harness sections and
// the data region are identical (prog.Build emits no data segment, so
// data reads as zeros), and the bodies agree below 4d. A body step i <
// d is replay-safe when it
//
//   - fetched from inside the shared prefix (PC == BodyBase+4i),
//   - did not trap, halt or write memory (memory stays image-fresh),
//   - fell through to BodyBase+4(i+1) (the next fetch stays in the
//     prefix), and
//   - loaded, if at all, only from outside [BodyBase, text end) — a
//     conservative 8-byte-wide window below BodyBase or anything at or
//     above the text region, both identical across the family.
//
// Eligibility is checked per step during normal execution, so
// capturing costs a handful of compares; snapshots are taken at the
// depths in snapCaptureDepths while the prefix stays eligible.
const (
	snapTreeCap = 64 // nodes per (worker, design) tree
)

// snapCaptureDepths are the body depths at which eligible runs leave
// snapshots behind. Powers of two: deep enough that a hit skips real
// work, few enough that a miss costs a handful of snapshot copies.
var snapCaptureDepths = [...]int{4, 8, 16, 32, 64}

// snapNode is one cached mid-body state: the architectural snapshot
// after depth eligible body instructions of the prefix in body, plus
// that prefix's trace entries. body and tr are owned by the node and
// recycled through evictions, so a warm tree inserts without heap
// growth.
type snapNode struct {
	depth int
	body  []uint32 // the prefix words (collision check for the hash key)
	snap  iss.Snapshot
	tr    []trace.Entry // body-trace entries [0, depth)
	tick  uint64        // logical LRU clock value of the last touch
}

// snapTree is a per-worker, per-design snapshot cache. Keys are FNV-1a
// hashes of the prefix words (verified against the stored prefix on
// every hit, so a collision degrades to a miss, never to a wrong
// replay). Eviction is least-recently-touched by logical tick — no
// wall clock, no map iteration.
type snapTree struct {
	pro   *prologue
	nodes map[uint64]*snapNode
	order []*snapNode // eviction scan set (unordered membership)
	tick  uint64
}

func newSnapTree(pro *prologue) *snapTree {
	return &snapTree{pro: pro, nodes: make(map[uint64]*snapNode, snapTreeCap)}
}

// prefixHash extends an FNV-1a hash with body words [from, to).
func prefixHash(h uint64, body []uint32, from, to int) uint64 {
	const fnvPrime = 1099511628211
	var b [4]byte
	for i := from; i < to; i++ {
		binary.LittleEndian.PutUint32(b[:], body[i])
		for _, c := range b {
			h ^= uint64(c)
			h *= fnvPrime
		}
	}
	return h
}

const fnvOffset = 14695981039346656037

func prefixEqual(a []uint32, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the deepest node whose prefix matches body and whose
// replay fits the step budget, or nil. hashes[i] must hold the prefix
// hash up to snapCaptureDepths[i].
func (t *snapTree) lookup(body []uint32, hashes *[len(snapCaptureDepths)]uint64, maxDepth int) *snapNode {
	for i := len(snapCaptureDepths) - 1; i >= 0; i-- {
		d := snapCaptureDepths[i]
		if d > len(body) || d > maxDepth {
			continue
		}
		n, ok := t.nodes[hashes[i]]
		if !ok || n.depth != d || !prefixEqual(n.body, body[:d]) {
			continue
		}
		t.tick++
		n.tick = t.tick
		return n
	}
	return nil
}

// insert caches a snapshot at depth d for body's prefix, evicting the
// least-recently-touched node when the tree is full. tr is copied (or
// written into a recycled node's buffer); snap is stored by value.
func (t *snapTree) insert(body []uint32, d int, hash uint64, snap iss.Snapshot, tr []trace.Entry) {
	if n, ok := t.nodes[hash]; ok {
		if n.depth == d && prefixEqual(n.body, body[:d]) {
			t.tick++
			n.tick = t.tick // already cached: refresh, don't duplicate
			return
		}
		// Hash collision with a different prefix: keep the incumbent.
		return
	}
	var n *snapNode
	if len(t.order) >= snapTreeCap {
		// Evict the minimum-tick node and recycle its buffers. Ticks
		// are unique (every touch increments t.tick), so the victim is
		// unambiguous regardless of map or slice order.
		vi := 0
		for i, c := range t.order {
			if c.tick < t.order[vi].tick {
				vi = i
			}
		}
		n = t.order[vi]
		t.order[vi] = t.order[len(t.order)-1]
		t.order = t.order[:len(t.order)-1]
		delete(t.nodes, n.key())
	} else {
		n = &snapNode{}
	}
	n.depth = d
	n.body = append(n.body[:0], body[:d]...)
	n.snap = snap
	n.tr = append(n.tr[:0], tr...)
	t.tick++
	n.tick = t.tick
	t.nodes[hash] = n
	t.order = append(t.order, n)
}

// key recomputes a node's hash key (used only on eviction, so nodes
// don't store their own hash).
func (n *snapNode) key() uint64 {
	return prefixHash(fnvOffset, n.body, 0, n.depth)
}

// tree returns the worker's snapshot tree for the design it is bound
// to, keyed per design so a shared fleet-pool worker serving a mixed
// fleet can never replay one design's cached state for another, and
// invalidated if the prologue identity ever changes.
func (w *worker) tree(design string, pro *prologue) *snapTree {
	if w.trees == nil {
		w.trees = make(map[string]*snapTree, 2)
	}
	t, ok := w.trees[design]
	if !ok || t.pro != pro {
		t = newSnapTree(pro)
		w.trees[design] = t
	}
	return t
}

const dcacheWords = 0x4000 / 4 // decode-cache window: first 16 KiB of text

// goldenRun is the engine workers' golden-model run: GoldenRun plus
// the per-worker snapshot tree and decode cache. body must be the
// program's body words (the builder's input for img). The returned
// trace is bit-identical to GoldenRun's — the tree only ever replays
// prefixes proven eligible, and the decode cache re-validates the raw
// word on every fetch, so self-modifying code re-decodes.
func (w *worker) goldenRun(sh *shared, img mem.Image, body []uint32, budget int, buf []trace.Entry) []trace.Entry {
	pro := prologueFor(img.Entry)
	m := w.gmem
	m.Load(img)
	if w.dcache == nil {
		w.dcache = iss.NewDecodeCache(mem.TextBase, dcacheWords)
	}
	if !pro.ok || budget <= len(pro.trace) {
		s := iss.New(m, img.Entry)
		s.Cache = w.dcache
		return s.RunAppend(buf, budget)
	}
	t := w.tree(w.bound, pro)

	// Running prefix hashes up to each capture depth (FNV-1a is
	// prefix-incremental, so the whole set costs one pass).
	var hashes [len(snapCaptureDepths)]uint64
	h, from := uint64(fnvOffset), 0
	for i, d := range snapCaptureDepths {
		if d > len(body) {
			hashes[i] = 0
			continue
		}
		h = prefixHash(h, body, from, d)
		hashes[i], from = h, d
	}

	entries := append(buf[:0], pro.trace...)
	startBody := 0
	var s *iss.ISS
	if n := t.lookup(body, &hashes, budget-len(pro.trace)); n != nil {
		entries = append(entries, n.tr...)
		s = iss.NewFromSnapshot(n.snap, m)
		startBody = n.depth
		sh.snapHits.Add(1)
	} else {
		s = iss.NewFromSnapshot(pro.snap, m)
		sh.snapMisses.Add(1)
	}
	s.Cache = w.dcache

	// Execute the rest, tracking prefix eligibility to leave deeper
	// snapshots behind. A hit resumes with the prefix already proven
	// eligible (nodes are only ever captured from eligible runs).
	const textEnd = mem.TextBase + mem.TextSize
	eligible := true
	bi := startBody // body instructions executed eligibly so far
	nextCap := 0
	for nextCap < len(snapCaptureDepths) && snapCaptureDepths[nextCap] <= startBody {
		nextCap++
	}
	var capSnaps [len(snapCaptureDepths)]iss.Snapshot
	var capDepths [len(snapCaptureDepths)]int
	nCaps := 0
	for len(entries) < budget {
		prePC := s.PC
		e, ok := s.Step()
		if !ok {
			break
		}
		entries = append(entries, e)
		if eligible {
			switch {
			case prePC != pro.body+uint64(4*bi),
				e.Trap, s.Halted, e.MemWrite,
				s.PC != pro.body+uint64(4*(bi+1)),
				e.MemValid && !(e.MemAddr+8 <= pro.body || e.MemAddr >= textEnd):
				eligible = false
			default:
				bi++
				if nextCap < len(snapCaptureDepths) && bi == snapCaptureDepths[nextCap] {
					if bi <= len(body) {
						capDepths[nCaps] = bi
						capSnaps[nCaps] = s.Snapshot()
						nCaps++
					}
					nextCap++
				}
			}
		}
		if s.Halted {
			break
		}
	}
	for k := 0; k < nCaps; k++ {
		d := capDepths[k]
		var hi int
		for hi = 0; snapCaptureDepths[hi] != d; hi++ {
		}
		t.insert(body, d, hashes[hi], capSnaps[k], entries[len(pro.trace):len(pro.trace)+d])
	}
	return entries
}
