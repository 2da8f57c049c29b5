package uarch

import (
	"cmp"
	"slices"
)

// Mark is what a core model's cycle check keeps of its blocks at a
// mark (hart.Marks): the change counters of the caches, BHT and BTB,
// the return address stack, and each cache line's LRU stamp.
type Mark struct {
	ic, dc, bht, btb uint64
	ras              []uint64
	icLRU, dcLRU     []uint64
}

// Take marks c's current state. The slices are reused from mark to
// mark, so a long-lived Mark stops allocating once they have grown.
func (k *Mark) Take(c Core) {
	k.ic, k.dc, k.bht, k.btb = c.IC.gen, c.DC.gen, c.BHT.gen, c.BTB.gen
	k.ras = append(k.ras[:0], c.RAS.stack...)
	k.icLRU = appendLRU(k.icLRU[:0], c.IC.lines)
	k.dcLRU = appendLRU(k.dcLRU[:0], c.DC.lines)
}

// Same reports whether c is in the state k marked, up to the LRU clock:
// no block's content has changed since, the return address stack is the
// same, and the stamps order the ways of every set as they did.
func (k *Mark) Same(c Core) bool {
	return c.IC.gen == k.ic && c.DC.gen == k.dc && c.BHT.gen == k.bht && c.BTB.gen == k.btb &&
		slices.Equal(c.RAS.stack, k.ras) &&
		sameOrder(c.IC.lines, k.icLRU, c.IC.cfg.Ways) && sameOrder(c.DC.lines, k.dcLRU, c.DC.cfg.Ways)
}

func appendLRU(dst []uint64, lines []line) []uint64 {
	for i := range lines {
		dst = append(dst, lines[i].lru)
	}
	return dst
}

// sameOrder reports whether the stamps of lines order every pair of
// ways in a set as the stamps was held for them do.
func sameOrder(lines []line, was []uint64, ways int) bool {
	for s := 0; s < len(lines); s += ways {
		for a := s; a < s+ways; a++ {
			for b := a + 1; b < s+ways; b++ {
				if cmp.Compare(lines[a].lru, lines[b].lru) != cmp.Compare(was[a], was[b]) {
					return false
				}
			}
		}
	}
	return true
}
