// Package mem provides the sparse physical memory shared by the
// golden-model ISS and the DUT core models, plus the loadable image
// format produced by the program builder.
//
// A Memory resolves an address the way the modelled bus does: a short
// scan of the mapped ranges, then one index into that range's dense
// page table. Every accessor resolves the page once per access and
// then works on the page's bytes — ReadUint and WriteUint assemble the
// value in place, ReadLine copies a span — and only an access that
// straddles a page boundary falls back to one resolve per byte. Each
// path reads and writes exactly the bytes the byte-at-a-time loop
// would, in little-endian order, so the choice of path is invisible to
// the simulators (mem_test.go drives this memory against a
// map-of-pages reference).
//
// The accessors perform no mapping check; callers ask Mapped first. A
// page table covers whole 4 KiB pages, so a range that ends inside a
// page (the 8-byte tohost device) has backing store for the rest of
// that page: a cache line filled from there reads zeros. An address in
// no range's pages has no backing store: loads of it read 0, and a
// store to it panics — no simulator reaches one after a Mapped check,
// so it is a programming error, like loading an image outside the map.
//
//chatfuzz:deterministic package
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

const pageBits = 12
const pageSize = 1 << pageBits

// Range describes one mapped physical region. Accesses outside every
// mapped range raise access faults in the simulators, which is the main
// organic source of load/store access-fault coverage during fuzzing.
type Range struct {
	Base uint64
	Size uint64
}

// Contains reports whether [addr, addr+size) lies inside the range.
func (r Range) Contains(addr uint64, size int) bool {
	return addr >= r.Base && addr+uint64(size) <= r.Base+r.Size && addr+uint64(size) >= addr
}

// Memory is a little-endian sparse physical memory. The zero value is
// unusable; construct with New.
//
// Reset is generation-tagged: each page carries the generation it was
// last written in, and Reset just bumps the memory's generation. A page
// left over from an earlier generation reads as zero and is cleared
// lazily on its next write, so Reset costs O(1) instead of scaling with
// every page the memory ever touched — which matters once one reusable
// execution context is shared by a whole fleet of campaign shards and
// its page set grows toward the union of all their tests.
type Memory struct {
	tables []table
	ranges []Range
	gen    uint64
}

// table is the page table of one mapped range: a slot per 4 KiB page
// the range touches, nil until the page is first written.
type table struct {
	first uint64 // page number of pages[0]
	pages []*page
}

// page is one 4 KiB unit of backing store plus the generation tag that
// makes Reset constant-time.
type page struct {
	gen  uint64
	data []byte
}

// New returns a memory with the given mapped ranges. Two ranges may not
// touch the same 4 KiB page: each range owns the pages it covers.
func New(ranges ...Range) *Memory {
	rs := make([]Range, len(ranges))
	copy(rs, ranges)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Base < rs[j].Base })
	m := &Memory{ranges: rs}
	for _, r := range rs {
		first, end := r.Base>>pageBits, (r.Base+r.Size+pageSize-1)>>pageBits
		if n := len(m.tables); n > 0 && first < m.tables[n-1].first+uint64(len(m.tables[n-1].pages)) {
			panic(fmt.Sprintf("mem: range at %#x shares a page with the range below it", r.Base))
		}
		m.tables = append(m.tables, table{first: first, pages: make([]*page, end-first)})
	}
	return m
}

// Mapped reports whether the whole access [addr, addr+size) targets
// mapped memory.
func (m *Memory) Mapped(addr uint64, size int) bool {
	for _, r := range m.ranges {
		if r.Contains(addr, size) {
			return true
		}
	}
	return false
}

// slot returns the page-table slot of addr's page, or nil when addr
// lies in no range's pages.
func (m *Memory) slot(addr uint64) **page {
	pn := addr >> pageBits
	for i := range m.tables {
		t := &m.tables[i]
		if i := pn - t.first; i < uint64(len(t.pages)) {
			return &t.pages[i]
		}
	}
	return nil
}

// live returns the bytes of addr's page when it was written in the
// current generation, nil when the page reads as zero.
func (m *Memory) live(addr uint64) []byte {
	if s := m.slot(addr); s != nil && *s != nil && (*s).gen == m.gen {
		return (*s).data
	}
	return nil
}

// page returns the writable backing store of addr's page, allocating
// it on first use and lazily clearing a page left over from before the
// last Reset.
func (m *Memory) page(addr uint64) []byte {
	s := m.slot(addr)
	if s == nil {
		panic(fmt.Sprintf("mem: store to %#x, which lies in no mapped range's pages", addr))
	}
	p := *s
	if p == nil {
		p = &page{gen: m.gen, data: make([]byte, pageSize)}
		*s = p
	} else if p.gen != m.gen {
		clear(p.data)
		p.gen = m.gen
	}
	return p.data
}

// LoadByte reads one byte without a mapping check (callers check first).
func (m *Memory) LoadByte(addr uint64) byte {
	if d := m.live(addr); d != nil {
		return d[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte writes one byte without a mapping check.
func (m *Memory) StoreByte(addr uint64, v byte) {
	m.page(addr)[addr&(pageSize-1)] = v
}

// ReadUint reads a little-endian value of 1, 2, 4 or 8 bytes.
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		d := m.live(addr)
		switch {
		case d == nil:
			return 0
		case size == 8:
			return binary.LittleEndian.Uint64(d[off:])
		case size == 4:
			return uint64(binary.LittleEndian.Uint32(d[off:]))
		case size == 2:
			return uint64(binary.LittleEndian.Uint16(d[off:]))
		case size == 1:
			return uint64(d[off])
		}
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// WriteUint writes a little-endian value of 1, 2, 4 or 8 bytes.
func (m *Memory) WriteUint(addr uint64, v uint64, size int) {
	if off := addr & (pageSize - 1); off+uint64(size) <= pageSize {
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(m.page(addr)[off:], v)
			return
		case 4:
			binary.LittleEndian.PutUint32(m.page(addr)[off:], uint32(v))
			return
		case 2:
			binary.LittleEndian.PutUint16(m.page(addr)[off:], uint16(v))
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadWord reads a 32-bit instruction word.
func (m *Memory) ReadWord(addr uint64) uint32 { return uint32(m.ReadUint(addr, 4)) }

// ReadLine copies len(dst) bytes starting at addr into dst, one page
// resolve and one copy per page touched — a cache-line fill is a single
// copy, since lines never straddle a page.
func (m *Memory) ReadLine(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := addr & (pageSize - 1)
		n := min(len(dst), int(pageSize-off))
		if d := m.live(addr); d != nil {
			copy(dst[:n], d[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Reset restores the memory to its freshly-constructed state while
// keeping the already-allocated pages for reuse. A Reset memory is
// observationally identical to New with the same ranges (every load of
// an untouched byte returns 0), so a simulator worker can run one test
// per Reset+Load cycle without re-allocating its address space — the
// allocation-free steady state of the batch execution engine. Reset is
// O(1): it bumps the generation, and stale pages are cleared lazily on
// their next write.
func (m *Memory) Reset() {
	m.gen++
}

// Segment is one contiguous chunk of an Image. Data is read-only: Load
// only reads it, and images built by internal/prog share the harness
// segments' arrays.
type Segment struct {
	Base uint64
	Data []byte
}

// Image is a loadable program: segments plus the entry PC. It is the
// unit the fuzzers hand to both simulators.
type Image struct {
	Entry uint64
	// Body is the PC of the first program-specific instruction, 0 when
	// unknown: a DUT runner may checkpoint its state there (rtl.Runner).
	// It never changes what a run computes.
	Body     uint64
	Segments []Segment
}

// AddWords appends a segment built from little-endian 32-bit words.
func (img *Image) AddWords(base uint64, words []uint32) {
	data := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(data[4*i:], w)
	}
	img.Segments = append(img.Segments, Segment{Base: base, Data: data})
}

// Load copies every segment of the image into memory. It panics if a
// segment falls outside the mapped ranges: images are produced by the
// program builder, so that is a programming error, not a fuzz finding.
// Segments are copied page-wise (one page lookup per page, memmove per
// span) — Load runs twice per fuzz test (DUT and golden model), so the
// naive byte-at-a-time copy was a measurable slice of the hot loop.
func (m *Memory) Load(img Image) {
	for _, seg := range img.Segments {
		if len(seg.Data) > 0 && !m.Mapped(seg.Base, len(seg.Data)) {
			panic(fmt.Sprintf("mem: segment [%#x, +%d) outside mapped ranges", seg.Base, len(seg.Data)))
		}
		addr, data := seg.Base, seg.Data
		for len(data) > 0 {
			p := m.page(addr)
			n := copy(p[addr&(pageSize-1):], data)
			data = data[n:]
			addr += uint64(n)
		}
	}
}

// Standard memory map of the simulated platform. Text and data are
// ordinary RAM (so self-modifying code is possible, which Bug1 needs);
// Tohost is the riscv-tests-style termination device: an 8-byte store
// of a non-zero value there ends the test on both simulators.
const (
	TextBase = 0x8000_0000
	TextSize = 0x0010_0000 // 1 MiB
	DataBase = 0x8010_0000
	DataSize = 0x0010_0000 // 1 MiB
	Tohost   = 0x8020_0000
)

// Platform returns a memory with the standard map.
func Platform() *Memory {
	return New(
		Range{Base: TextBase, Size: TextSize},
		Range{Base: DataBase, Size: DataSize},
		Range{Base: Tohost, Size: 8},
	)
}
