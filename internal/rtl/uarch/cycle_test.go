package uarch

import "testing"

// TestMarkSame holds Mark to its doc comment, one event at a time on a
// core whose caches hold two lines in each way of set 0: what only
// moves the LRU clock keeps the state, and a content change, an LRU
// reorder within a set or a RAS change does not.
func TestMarkSame(t *testing.T) {
	cfg := CacheConfig{Sets: 2, Ways: 2, LineBytes: 64}
	m := fakeMem{}
	const a, b = 0x0000, 0x0080 // both in set 0
	for _, tc := range []struct {
		name string
		act  func(c Core)
		same bool
	}{
		{"nothing", func(c Core) {}, true},
		{"D-cache hits in LRU order", func(c Core) { c.DC.Access(a, false); c.DC.Access(b, false) }, true},
		{"D-cache hits in the other order", func(c Core) { c.DC.Access(b, false); c.DC.Access(a, false) }, false},
		{"D-cache write to a dirty line", func(c Core) { c.DC.Access(a, true); c.DC.Access(b, false) }, true},
		{"D-cache write to a clean line", func(c Core) { c.DC.Access(a, false); c.DC.Access(b, true) }, false},
		{"D-cache fill", func(c Core) { c.DC.Access(0x1000, false) }, false},
		{"I-cache hits in LRU order", func(c Core) { c.IC.Fetch(a, m); c.IC.Fetch(b, m) }, true},
		{"I-cache hits in the other order", func(c Core) { c.IC.Fetch(b, m); c.IC.Fetch(a, m) }, false},
		{"I-cache fill", func(c Core) { c.IC.Fetch(0x1040, m) }, false},
		{"FENCE.I", func(c Core) { c.IC.Flush() }, false},
		{"saturated BHT update", func(c Core) { c.BHT.Update(0x40, true) }, true},
		{"BHT counter moves", func(c Core) { c.BHT.Update(0x40, false) }, false},
		{"BTB update to the same target", func(c Core) { c.BTB.Update(0x40, 0x80) }, true},
		{"BTB update to another target", func(c Core) { c.BTB.Update(0x40, 0x84) }, false},
		{"RAS push and pop", func(c Core) { c.RAS.Push(0x44); c.RAS.Pop() }, true},
		{"RAS pop", func(c Core) { c.RAS.Pop() }, false},
	} {
		c := NewCore(cfg, cfg, 4, 4, 2)
		for _, addr := range []uint64{a, b} {
			c.DC.Access(addr, addr == a) // a dirty, b clean, b most recent
			c.IC.Fetch(addr, m)
		}
		for range 3 {
			c.BHT.Update(0x40, true)
		}
		c.BTB.Update(0x40, 0x80)
		c.RAS.Push(0x40)
		var k Mark
		k.Take(c)
		tc.act(c)
		if got := k.Same(c); got != tc.same {
			t.Errorf("%s: Same = %v, want %v", tc.name, got, tc.same)
		}
	}
}
