package tensor

// arenaChunk is the size, in float64s, of an arena's chunks: 2 MiB.
const arenaChunk = 1 << 18

// Arena is the memory of a tape that is built, differentiated and
// dropped over and over, such as one PPO epoch: every result of an op
// over a tensor that lives in an arena, its gradient and the op's
// scratch come from that arena instead of the heap. Memory handed out
// is zeroed, as make's is, so a result's bits do not depend on where it
// lives (TestArenaMatchesHeapBitExact). Reset makes all of it reusable.
//
// An arena hands out its chunks in order, each until the next request
// does not fit, and adds a chunk — arenaChunk floats, or the request if
// larger — when a tape runs past the last. It never drops one, so a
// tape that outgrows the arena leaves no garbage behind, and one that
// fits allocates nothing. A nil *Arena is the heap. An Arena is not
// goroutine-safe: one tape is built and run on it at a time.
type Arena struct {
	chunks [][]float64
	cur    int // the chunk being handed out
	off    int // floats handed out of chunks[cur]
}

// floats returns n zeroed float64s.
func (a *Arena) floats(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	for ; a.cur < len(a.chunks); a.cur, a.off = a.cur+1, 0 {
		if c := a.chunks[a.cur]; a.off+n <= len(c) {
			s := c[a.off : a.off+n : a.off+n]
			a.off += n
			clear(s)
			return s
		}
	}
	c := make([]float64, max(n, arenaChunk))
	a.chunks = append(a.chunks, c)
	a.cur, a.off = len(a.chunks)-1, n
	return c[:n:n]
}

// Reset hands the arena's memory out again from the start. Nothing
// taken from it before — results, gradients, scratch — may be read
// after: read the loss and whatever else a tape produced first.
func (a *Arena) Reset() { a.cur, a.off = 0, 0 }
