package mem

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMappedRanges(t *testing.T) {
	m := Platform()
	cases := []struct {
		addr uint64
		size int
		want bool
	}{
		{TextBase, 4, true},
		{TextBase + TextSize - 4, 4, true},
		{TextBase + TextSize - 3, 4, false},
		{TextBase - 1, 1, false},
		{DataBase, 8, true},
		{Tohost, 8, true},
		{Tohost + 1, 8, false},
		{0, 1, false},
		{^uint64(0), 8, false}, // overflow must not wrap into a range
	}
	for _, c := range cases {
		if got := m.Mapped(c.addr, c.size); got != c.want {
			t.Errorf("Mapped(%#x, %d) = %v, want %v", c.addr, c.size, got, c.want)
		}
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	m := Platform()
	f := func(off uint32, v uint64, szSel uint8) bool {
		size := []int{1, 2, 4, 8}[szSel%4]
		addr := DataBase + uint64(off%(DataSize-8))
		m.WriteUint(addr, v, size)
		got := m.ReadUint(addr, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*size) - 1
		}
		return got == v&mask
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := Platform()
	m.WriteUint(DataBase, 0x0102030405060708, 8)
	if b := m.LoadByte(DataBase); b != 0x08 {
		t.Errorf("little-endian low byte = %#x, want 0x08", b)
	}
	if w := m.ReadWord(DataBase + 4); w != 0x01020304 {
		t.Errorf("high word = %#x, want 0x01020304", w)
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	m := Platform()
	if v := m.ReadUint(DataBase+0x1234, 8); v != 0 {
		t.Errorf("fresh memory = %#x, want 0", v)
	}
}

func TestImageLoad(t *testing.T) {
	m := Platform()
	var img Image
	img.AddWords(TextBase, []uint32{0x11223344, 0xAABBCCDD})
	m.Load(img)
	if w := m.ReadWord(TextBase); w != 0x11223344 {
		t.Errorf("word 0 = %#x", w)
	}
	if w := m.ReadWord(TextBase + 4); w != 0xAABBCCDD {
		t.Errorf("word 1 = %#x", w)
	}
}

func TestImageLoadOutsideRangesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Load outside mapped ranges should panic")
		}
	}()
	m := Platform()
	var img Image
	img.AddWords(0x1000, []uint32{1})
	m.Load(img)
}

func TestPageBoundaryStraddle(t *testing.T) {
	m := Platform()
	addr := uint64(DataBase + pageSize - 3) // straddles a page boundary
	m.WriteUint(addr, 0xDEADBEEFCAFEF00D, 8)
	if got := m.ReadUint(addr, 8); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("straddling rw = %#x", got)
	}
}

// TestResetRestoresFreshState: after Reset, a memory must be
// observationally identical to a newly-constructed one — every byte
// reads zero, mappings unchanged — while reusing its pages.
func TestResetRestoresFreshState(t *testing.T) {
	m := Platform()
	addrs := []uint64{TextBase, TextBase + 0x801, DataBase + 0x1234, Tohost}
	for _, a := range addrs {
		m.StoreByte(a, 0xAB)
	}
	m.Reset()
	for _, a := range addrs {
		if got := m.LoadByte(a); got != 0 {
			t.Errorf("after Reset, byte at %#x = %#x, want 0", a, got)
		}
	}
	if !m.Mapped(TextBase, 4) || m.Mapped(0, 1) {
		t.Error("Reset changed the mapped ranges")
	}
	// Reset must also be safe on a memory that never allocated a page.
	New(Range{Base: 0x1000, Size: 0x1000}).Reset()
}

// TestGenerationalResetClearsLazily pins the O(1) Reset contract: a
// page written before a Reset reads as zero afterwards without being
// eagerly cleared, survives interleaved Reset/write/read cycles, and
// stays correct when the same page is rewritten across generations —
// the access pattern of a fleet-shared execution context whose page
// set grows toward the union of every shard's tests.
func TestGenerationalResetClearsLazily(t *testing.T) {
	m := Platform()
	const a = TextBase + 0x40
	for gen := 0; gen < 5; gen++ {
		if got := m.LoadByte(a); got != 0 {
			t.Fatalf("gen %d: stale byte %#x before write", gen, got)
		}
		m.WriteUint(a, uint64(0xA0+gen), 8)
		if got := m.ReadUint(a, 8); got != uint64(0xA0+gen) {
			t.Fatalf("gen %d: read back %#x", gen, got)
		}
		// A partial write after Reset must see a cleared page, not the
		// previous generation's neighbouring bytes.
		m.Reset()
		m.StoreByte(a+1, 0xFF)
		if got := m.ReadUint(a, 8); got != 0xFF00 {
			t.Fatalf("gen %d: partial write over stale page read %#x, want 0xff00", gen, got)
		}
		m.Reset()
	}
}

// refMemory is the memory this package had before page tables: a map
// of pages and a byte loop for everything. It is the reference the
// differential tests drive the real Memory against.
type refMemory struct {
	pages map[uint64]*page
	gen   uint64
}

func (r *refMemory) load(addr uint64) byte {
	if p, ok := r.pages[addr>>pageBits]; ok && p.gen == r.gen {
		return p.data[addr&(pageSize-1)]
	}
	return 0
}

func (r *refMemory) store(addr uint64, v byte) {
	p, ok := r.pages[addr>>pageBits]
	if !ok {
		p = &page{data: make([]byte, pageSize)}
		r.pages[addr>>pageBits] = p
	}
	if p.gen != r.gen {
		clear(p.data)
		p.gen = r.gen
	}
	p.data[addr&(pageSize-1)] = v
}

func (r *refMemory) readUint(addr uint64, size int) (v uint64) {
	for i := 0; i < size; i++ {
		v |= uint64(r.load(addr+uint64(i))) << (8 * i)
	}
	return v
}

// diffAddrs are the places where the two memories could part ways:
// page and range edges, the tohost page beyond its eight mapped bytes,
// and addresses no table covers.
var diffAddrs = []uint64{
	TextBase, TextBase + pageSize - 4, TextBase + TextSize - pageSize, DataBase - 8,
	DataBase + 0x2000, DataBase + DataSize - 8, Tohost - 4, Tohost, Tohost + 8, Tohost + pageSize - 64,
	Tohost + pageSize - 3, Tohost + pageSize, 0, 0x1000, TextBase - 4, ^uint64(0) - 16,
}

// driveBoth interprets ops as a sequence of memory operations, applies
// each to a Platform memory and to the reference, and compares every
// value read plus, after every operation, the bytes around the address
// it touched. Stores are steered onto backed pages (a store elsewhere
// panics by contract); loads go anywhere.
func driveBoth(t *testing.T, ops []byte) {
	t.Helper()
	m, ref := Platform(), &refMemory{pages: map[uint64]*page{}}
	backed := func(addr uint64, n int) bool {
		return m.slot(addr) != nil && m.slot(addr+uint64(n)-1) != nil
	}
	line := make([]byte, 64)
	for len(ops) >= 12 {
		op, sel, delta := ops[0], ops[1], uint64(ops[2])|uint64(ops[3])<<8
		v := binary.LittleEndian.Uint64(ops[4:12])
		ops = ops[12:]
		addr := diffAddrs[int(sel)%len(diffAddrs)] + delta%(2*pageSize) - pageSize/2
		size := 1 + int(op>>4)%8
		switch op % 8 {
		case 0:
			if backed(addr, 1) {
				m.StoreByte(addr, byte(v))
				ref.store(addr, byte(v))
			}
		case 1, 2:
			if backed(addr, size) {
				m.WriteUint(addr, v, size)
				for i := 0; i < size; i++ {
					ref.store(addr+uint64(i), byte(v>>(8*i)))
				}
			}
		case 3:
			if got, want := m.ReadUint(addr, size), ref.readUint(addr, size); got != want {
				t.Fatalf("ReadUint(%#x, %d) = %#x, reference %#x", addr, size, got, want)
			}
		case 4:
			if got, want := m.ReadWord(addr), uint32(ref.readUint(addr, 4)); got != want {
				t.Fatalf("ReadWord(%#x) = %#x, reference %#x", addr, got, want)
			}
		case 5:
			dst := line[:1+v%uint64(len(line))]
			if op>>4 == 0 {
				addr &^= 63 // an aligned cache line
				dst = line
			}
			for i := range dst {
				dst[i] = 0xA5 // ReadLine must overwrite all of it
			}
			m.ReadLine(addr, dst)
			for i, b := range dst {
				if want := ref.load(addr + uint64(i)); b != want {
					t.Fatalf("ReadLine(%#x)[%d] = %#x, reference %#x", addr, i, b, want)
				}
			}
		case 6:
			seg := make([]byte, 1+v%(pageSize+64))
			for i := range seg {
				seg[i] = byte(v >> (8 * (i % 8)))
			}
			if m.Mapped(addr, len(seg)) {
				m.Load(Image{Segments: []Segment{{Base: addr, Data: seg}}})
				for i, b := range seg {
					ref.store(addr+uint64(i), b)
				}
			}
		case 7:
			m.Reset()
			ref.gen++
		}
		for a := addr - 8; a != addr+16; a++ {
			if got, want := m.LoadByte(a), ref.load(a); got != want {
				t.Fatalf("after op %d at %#x: byte %#x = %#x, reference %#x", op%8, addr, a, got, want)
			}
		}
	}
}

// TestMemoryMatchesReference drives seeded random operation sequences,
// long enough to cross many generations.
func TestMemoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		ops := make([]byte, 12*4000)
		rand.New(rand.NewSource(seed)).Read(ops)
		driveBoth(t, ops)
	}
}

// FuzzMemoryMatchesReference is the same drive under the fuzzer.
func FuzzMemoryMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 12*64)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	// Write across a page edge, reset, read it back, fill a line over it.
	f.Add([]byte{
		0x71, 1, 0xFE, 0x07, 0xEF, 0xBE, 0xAD, 0xDE, 0x0D, 0xF0, 0xFE, 0xCA,
		0x73, 1, 0xFE, 0x07, 0, 0, 0, 0, 0, 0, 0, 0,
		0x07, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		0x05, 1, 0xFE, 0x07, 0, 0, 0, 0, 0, 0, 0, 0,
	})
	f.Fuzz(func(t *testing.T, ops []byte) { driveBoth(t, ops) })
}

// TestStoreOutsideEveryTablePanics pins the documented contract.
func TestStoreOutsideEveryTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a store no page table covers should panic")
		}
	}()
	Platform().StoreByte(0x1000, 1)
}

// TestRangesMayNotShareAPage pins New's contract.
func TestRangesMayNotShareAPage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("two ranges in one page should panic")
		}
	}()
	New(Range{Base: 0x1000, Size: 8}, Range{Base: 0x1800, Size: 8})
}
