// Package uarch provides the microarchitectural building blocks shared
// by the Rocket and BOOM core models: set-associative caches (a
// tag-only timing cache and a data-holding instruction cache whose
// stale lines realise Bug1), a gshare-less BHT, a BTB, and a return
// address stack.
//
// The blocks are deliberately free of coverage hooks; the core models
// observe their outcomes and record the condition points, so each core
// has its own coverage space over the same structures.
//
// Both caches keep their lines in one flat sets×ways array, way w of
// set s at s*Ways+w, so a lookup walks one contiguous run and Reset is
// a single clear. The I-cache fills a missing line with one line-sized
// read of backing memory (MemReader.ReadLine): the same bytes, in the
// same order, that a byte-at-a-time fill would copy, taken at the same
// point of the fetch — which is all Bug1's stale lines depend on.
//
// Core bundles a model's five blocks; Checkpoint is the copy of them a
// runner resumes from after the harness prologue, and holds, once for
// both models, the conditions under which that is exact.
//
// The caches, BHT and BTB count their changes of content (gen): a line
// filled, evicted, dirtied or flushed, a counter or target that
// actually moved. An LRU stamp is not content; only the order of the
// stamps within a set steers replacement. Mark uses both to tell that a
// Core is back in a state it was in before (cycle.go).
//
//chatfuzz:deterministic package
package uarch

import "encoding/binary"

// CacheConfig sizes a set-associative cache.
type CacheConfig struct {
	Sets      int // power of two
	Ways      int
	LineBytes int // power of two
}

// lineAddr returns the line-aligned address and set index.
func (c CacheConfig) lineAddr(addr uint64) (uint64, int) {
	la := addr &^ uint64(c.LineBytes-1)
	set := int(la/uint64(c.LineBytes)) & (c.Sets - 1)
	return la, set
}

// line is the bookkeeping of one cache way.
type line struct {
	tag   uint64
	lru   uint64
	valid bool
	dirty bool
}

// TimingCache models hit/miss/eviction behaviour only; data always
// flows to and from backing memory, so it is architecturally coherent.
// Used for the D-cache.
type TimingCache struct {
	cfg   CacheConfig
	lines []line
	tick  uint64
	gen   uint64 // fills, evictions and clean-to-dirty changes
}

// NewTimingCache returns an empty timing cache.
func NewTimingCache(cfg CacheConfig) *TimingCache {
	return &TimingCache{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways)}
}

// Reset invalidates every line and rewinds the LRU clock, restoring
// the freshly-constructed state without re-allocating the array.
func (t *TimingCache) Reset() {
	clear(t.lines)
	t.tick, t.gen = 0, 0
}

// CopyFrom makes t an exact copy of a same-sized cache.
func (t *TimingCache) CopyFrom(src *TimingCache) {
	t.tick, t.gen = src.tick, src.gen
	copy(t.lines, src.lines)
}

// AccessResult describes one cache access.
type AccessResult struct {
	Hit          bool
	Evicted      bool // a valid line was replaced
	WritebackReq bool // the evicted line was dirty
}

// Access looks up addr, fills on miss (LRU replacement), and marks the
// line dirty on writes.
func (t *TimingCache) Access(addr uint64, write bool) AccessResult {
	t.tick++
	la, set := t.cfg.lineAddr(addr)
	ways := t.lines[set*t.cfg.Ways:][:t.cfg.Ways]
	for w := range ways {
		if ln := &ways[w]; ln.valid && ln.tag == la {
			ln.lru = t.tick
			if write && !ln.dirty {
				ln.dirty = true
				t.gen++
			}
			return AccessResult{Hit: true}
		}
	}
	// Miss: pick invalid way, else LRU.
	t.gen++
	for w := range ways {
		if !ways[w].valid {
			ways[w] = line{tag: la, lru: t.tick, valid: true, dirty: write}
			return AccessResult{Hit: false}
		}
	}
	victim := &ways[0]
	for w := 1; w < len(ways); w++ {
		if ways[w].lru < victim.lru {
			victim = &ways[w]
		}
	}
	res := AccessResult{Hit: false, Evicted: true, WritebackReq: victim.dirty}
	*victim = line{tag: la, lru: t.tick, valid: true, dirty: write}
	return res
}

// MemReader is the backing-memory read interface the ICache fills from:
// ReadLine copies len(dst) bytes starting at addr into dst.
type MemReader interface {
	ReadLine(addr uint64, dst []byte)
}

// ICache holds actual copies of instruction lines. Crucially, it is
// NOT kept coherent with stores — the RISC-V spec requires software to
// execute FENCE.I after writing instruction memory, and RocketCore
// relies on that. A program that self-modifies without FENCE.I fetches
// stale bytes here while the golden model executes the new ones: Bug1
// (CWE-1202).
type ICache struct {
	cfg   CacheConfig
	lines []line
	data  []byte // LineBytes per way, in lines order
	tick  uint64
	fills int    // line fills since Reset
	gen   uint64 // fills and flushes
}

// NewICache returns an empty instruction cache.
func NewICache(cfg CacheConfig) *ICache {
	n := cfg.Sets * cfg.Ways
	return &ICache{cfg: cfg, lines: make([]line, n), data: make([]byte, n*cfg.LineBytes)}
}

// Fetch reads a 32-bit word at addr through the cache, filling the
// line from m on a miss. The returned word comes from the cached copy,
// which may be stale after unflushed stores.
func (c *ICache) Fetch(addr uint64, m MemReader) (word uint32, hit bool) {
	c.tick++
	la, set := c.cfg.lineAddr(addr)
	base := set * c.cfg.Ways
	ways := c.lines[base:][:c.cfg.Ways]
	way := -1
	for w := range ways {
		if ways[w].valid && ways[w].tag == la {
			way, hit = w, true
			break
		}
	}
	if way < 0 {
		way = 0
		for w := range ways {
			if !ways[w].valid {
				way = w
				break
			}
			if ways[w].lru < ways[way].lru {
				way = w
			}
		}
		m.ReadLine(la, c.lineData(base+way))
		ways[way].tag, ways[way].valid = la, true
		c.fills++
		c.gen++
	}
	ways[way].lru = c.tick
	return binary.LittleEndian.Uint32(c.lineData(base + way)[addr-la:]), hit
}

// lineData returns the data bytes of the i-th line.
func (c *ICache) lineData(i int) []byte {
	return c.data[i*c.cfg.LineBytes:][:c.cfg.LineBytes]
}

// Flush invalidates every line (FENCE.I).
func (c *ICache) Flush() {
	c.gen++
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// Reset restores the freshly-constructed state without re-allocating:
// every line invalid, LRU clock rewound. Stale line data is kept — an
// invalid line is refilled before it is ever read.
func (c *ICache) Reset() {
	clear(c.lines)
	c.tick, c.fills, c.gen = 0, 0, 0
}

// CopyFrom makes c observationally a copy of a same-sized cache whose
// valid lines are the ones valid lists: an invalid line's data is never
// read, so only theirs is copied.
func (c *ICache) CopyFrom(src *ICache, valid []int) {
	copy(c.lines, src.lines)
	c.tick, c.fills, c.gen = src.tick, src.fills, src.gen
	for _, i := range valid {
		copy(c.lineData(i), src.lineData(i))
	}
}

// BHT is a table of 2-bit saturating counters.
type BHT struct {
	counters []uint8
	gen      uint64 // counter changes
}

// NewBHT returns a BHT with n entries (power of two), weakly not-taken.
func NewBHT(n int) *BHT { return &BHT{counters: make([]uint8, n)} }

// Reset returns every counter to weakly not-taken.
func (b *BHT) Reset() { clear(b.counters); b.gen = 0 }

// CopyFrom makes b an exact copy of a same-sized table.
func (b *BHT) CopyFrom(src *BHT) { copy(b.counters, src.counters); b.gen = src.gen }

func (b *BHT) index(pc uint64) int { return int(pc>>2) & (len(b.counters) - 1) }

// Predict returns the taken prediction for pc.
func (b *BHT) Predict(pc uint64) bool { return b.counters[b.index(pc)] >= 2 }

// Update trains the counter with the actual outcome.
func (b *BHT) Update(pc uint64, taken bool) {
	i := b.index(pc)
	if taken {
		if b.counters[i] < 3 {
			b.counters[i]++
			b.gen++
		}
	} else if b.counters[i] > 0 {
		b.counters[i]--
		b.gen++
	}
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	tags    []uint64
	targets []uint64
	valid   []bool
	gen     uint64 // entry changes
}

// NewBTB returns a BTB with n entries (power of two).
func NewBTB(n int) *BTB {
	return &BTB{tags: make([]uint64, n), targets: make([]uint64, n), valid: make([]bool, n)}
}

// Reset invalidates every entry.
func (b *BTB) Reset() {
	clear(b.valid)
	clear(b.tags)
	clear(b.targets)
	b.gen = 0
}

// CopyFrom makes b an exact copy of a same-sized buffer.
func (b *BTB) CopyFrom(src *BTB) {
	copy(b.valid, src.valid)
	copy(b.tags, src.tags)
	copy(b.targets, src.targets)
	b.gen = src.gen
}

func (b *BTB) index(pc uint64) int { return int(pc>>2) & (len(b.tags) - 1) }

// Lookup returns the predicted target for pc, if any.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	i := b.index(pc)
	if b.valid[i] && b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update installs or refreshes the target for pc.
func (b *BTB) Update(pc, target uint64) {
	i := b.index(pc)
	if !b.valid[i] || b.tags[i] != pc || b.targets[i] != target {
		b.tags[i], b.targets[i], b.valid[i] = pc, target, true
		b.gen++
	}
}

// RAS is a fixed-depth return address stack.
type RAS struct {
	stack []uint64
	depth int
}

// NewRAS returns a RAS with the given depth.
func NewRAS(depth int) *RAS { return &RAS{depth: depth} }

// Reset empties the stack, keeping its backing array.
func (r *RAS) Reset() { r.stack = r.stack[:0] }

// CopyFrom makes r an exact copy of a stack of the same depth.
func (r *RAS) CopyFrom(src *RAS) { r.stack = append(r.stack[:0], src.stack...) }

// Push records a return address; reports whether the stack overflowed
// (oldest entry dropped).
func (r *RAS) Push(addr uint64) (overflow bool) {
	if len(r.stack) == r.depth {
		copy(r.stack, r.stack[1:])
		r.stack[len(r.stack)-1] = addr
		return true
	}
	r.stack = append(r.stack, addr)
	return false
}

// Pop returns the predicted return address; ok=false when empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	addr = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return addr, true
}
