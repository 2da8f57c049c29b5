package uarch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeMem is a trivial MemReader for ICache tests.
type fakeMem map[uint64]byte

func (f fakeMem) ReadLine(addr uint64, dst []byte) {
	for i := range dst {
		dst[i] = f[addr+uint64(i)]
	}
}

func TestTimingCacheHitAfterFill(t *testing.T) {
	c := NewTimingCache(CacheConfig{Sets: 4, Ways: 2, LineBytes: 64})
	if c.Access(0x1000, false).Hit {
		t.Error("first access must miss")
	}
	if !c.Access(0x1000, false).Hit {
		t.Error("second access must hit")
	}
	if !c.Access(0x103F, false).Hit {
		t.Error("same-line access must hit")
	}
	if c.Access(0x1040, false).Hit {
		t.Error("next line must miss")
	}
}

func TestTimingCacheLRUEvictionAndWriteback(t *testing.T) {
	// 1 set, 2 ways: three distinct lines mapping to the same set.
	c := NewTimingCache(CacheConfig{Sets: 1, Ways: 2, LineBytes: 64})
	c.Access(0x0000, true) // dirty
	c.Access(0x0040, false)
	res := c.Access(0x0080, false) // evicts 0x0000 (LRU, dirty)
	if !res.Evicted || !res.WritebackReq {
		t.Errorf("want dirty eviction, got %+v", res)
	}
	// 0x0040 should still hit (it was MRU at eviction time).
	if !c.Access(0x0040, false).Hit {
		t.Error("MRU line was wrongly evicted")
	}
}

func TestICacheServesStaleBytes(t *testing.T) {
	m := fakeMem{}
	for i := uint64(0); i < 64; i++ {
		m[0x2000+i] = byte(i)
	}
	c := NewICache(CacheConfig{Sets: 2, Ways: 1, LineBytes: 64})
	w1, hit := c.Fetch(0x2000, m)
	if hit {
		t.Error("first fetch must miss")
	}
	m[0x2000] = 0xFF // memory changes behind the cache's back
	w2, hit := c.Fetch(0x2000, m)
	if !hit {
		t.Error("second fetch must hit")
	}
	if w1 != w2 {
		t.Error("cached fetch must return stale bytes (Bug1 substrate)")
	}
	c.Flush()
	w3, hit := c.Fetch(0x2000, m)
	if hit {
		t.Error("post-flush fetch must miss")
	}
	if w3 == w1 {
		t.Error("post-flush fetch must observe the new bytes")
	}
}

func TestICacheWordAssembly(t *testing.T) {
	m := fakeMem{0x100: 0x78, 0x101: 0x56, 0x102: 0x34, 0x103: 0x12}
	c := NewICache(CacheConfig{Sets: 2, Ways: 1, LineBytes: 64})
	w, _ := c.Fetch(0x100, m)
	if w != 0x12345678 {
		t.Errorf("fetched word = %#x, want 0x12345678 (little endian)", w)
	}
}

func TestBHTTrainsTowardsTaken(t *testing.T) {
	b := NewBHT(16)
	pc := uint64(0x8000_0000)
	if b.Predict(pc) {
		t.Error("initial prediction must be not-taken")
	}
	b.Update(pc, true)
	b.Update(pc, true)
	if !b.Predict(pc) {
		t.Error("after two taken outcomes prediction must flip")
	}
	b.Update(pc, true) // saturate to strongly-taken
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("one not-taken must not flip a strong counter")
	}
	b.Update(pc, false)
	if b.Predict(pc) {
		t.Error("two not-taken must flip prediction back")
	}
}

func TestBHTCounterSaturation(t *testing.T) {
	b := NewBHT(4)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	// After saturation, exactly two not-taken updates flip the
	// prediction (3 -> 2 -> 1).
	b.Update(pc, false)
	if !b.Predict(pc) {
		t.Error("first not-taken flipped a saturated counter")
	}
	b.Update(pc, false)
	if b.Predict(pc) {
		t.Error("second not-taken should flip")
	}
}

func TestBTBLookupAndAliasing(t *testing.T) {
	b := NewBTB(4)
	if _, hit := b.Lookup(0x100); hit {
		t.Error("empty BTB must miss")
	}
	b.Update(0x100, 0x500)
	if tgt, hit := b.Lookup(0x100); !hit || tgt != 0x500 {
		t.Errorf("lookup = (%#x,%v)", tgt, hit)
	}
	// 0x100 and 0x110 alias in a 4-entry BTB (index = pc>>2 & 3).
	b.Update(0x110, 0x900)
	if _, hit := b.Lookup(0x100); hit {
		t.Error("aliased entry must evict the old tag")
	}
}

func TestRASPushPopOrder(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS must fail to pop")
	}
	r.Push(1)
	r.Push(2)
	if a, ok := r.Pop(); !ok || a != 2 {
		t.Errorf("pop = (%d,%v), want (2,true)", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 1 {
		t.Errorf("pop = (%d,%v), want (1,true)", a, ok)
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	r := NewRAS(2)
	if r.Push(1) {
		t.Error("push 1 must not overflow")
	}
	if r.Push(2) {
		t.Error("push 2 must not overflow")
	}
	if !r.Push(3) {
		t.Error("push 3 must overflow")
	}
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("top = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Errorf("next = %d, want 2 (1 was dropped)", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS should now be empty")
	}
}

// Property: a timing cache with W ways never evicts among <=W distinct
// lines per set.
func TestTimingCacheNoEvictionWithinWays(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewTimingCache(CacheConfig{Sets: 8, Ways: 4, LineBytes: 64})
		// Four lines, all in set 0 of an 8-set cache: stride 8*64.
		lines := []uint64{0, 0x200 * 1, 0x200 * 2, 0x200 * 3}
		for i := 0; i < 200; i++ {
			a := lines[rng.Intn(len(lines))]
			if c.Access(a, rng.Intn(2) == 0).Evicted {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(17))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
