// Package cov implements VCS-style condition coverage for the DUT core
// models, and the paper's Coverage Calculator (§IV-B): stand-alone and
// incremental coverage per generated test input, and the cumulative
// total.
//
// A condition point corresponds to one boolean condition in the
// (modelled) RTL. Like Synopsys VCS condition coverage, each point has
// two bins — the condition observed true and observed false — and the
// coverage percentage is hit bins over total bins.
//
//chatfuzz:deterministic package
package cov

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// PointID identifies a registered condition point within a Space.
type PointID int

// Space is the set of condition points a DUT defines at construction.
// It is immutable once the DUT is built; runs record hits in Sets.
type Space struct {
	names []string
	index map[string]int
}

// NewSpace returns an empty condition space.
func NewSpace() *Space {
	return &Space{index: make(map[string]int)}
}

// Define registers a condition point under a stable, unique name and
// returns its id. Define panics on duplicates: point names are static
// identifiers in the core models.
func (s *Space) Define(name string) PointID {
	if _, dup := s.index[name]; dup {
		panic("cov: duplicate condition point " + name)
	}
	id := len(s.names)
	s.names = append(s.names, name)
	s.index[name] = id
	return PointID(id)
}

// NumPoints returns the number of condition points.
func (s *Space) NumPoints() int { return len(s.names) }

// NumBins returns the number of coverage bins (two per point).
func (s *Space) NumBins() int { return 2 * len(s.names) }

// Name returns the name of a point.
func (s *Space) Name(id PointID) string { return s.names[id] }

// Lookup returns the id of a named point.
func (s *Space) Lookup(name string) (PointID, bool) {
	id, ok := s.index[name]
	return PointID(id), ok
}

// NewSet returns an empty hit-set over this space.
func (s *Space) NewSet() *Set {
	return &Set{space: s, bits: make([]uint64, (s.NumBins()+63)/64)}
}

// Set records which bins were hit. Sets from single runs are merged
// into a cumulative total by the Calculator.
type Set struct {
	space *Space
	bits  []uint64
}

// Space returns the space this set belongs to.
func (c *Set) Space() *Space { return c.space }

func binIndex(id PointID, val bool) int {
	b := 2 * int(id)
	if val {
		b++
	}
	return b
}

// Cond records one observation of a condition point and returns the
// condition value, so model code reads naturally:
//
//	if c.Cond(pICacheMiss, miss) { ... }
func (c *Set) Cond(id PointID, val bool) bool {
	b := binIndex(id, val)
	c.bits[b>>6] |= 1 << (b & 63)
	return val
}

// Covered reports whether a specific bin has been hit.
func (c *Set) Covered(id PointID, val bool) bool {
	b := binIndex(id, val)
	return c.bits[b>>6]&(1<<(b&63)) != 0
}

// Count returns the number of hit bins.
func (c *Set) Count() int {
	n := 0
	for _, w := range c.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Percent returns hit bins as a percentage of all bins.
func (c *Set) Percent() float64 {
	total := c.space.NumBins()
	if total == 0 {
		return 0
	}
	return 100 * float64(c.Count()) / float64(total)
}

// Merge ORs other into c and returns the number of bins that were new
// to c.
func (c *Set) Merge(other *Set) int {
	if c.space != other.space {
		panic("cov: merging sets from different spaces")
	}
	added := 0
	for i, w := range other.bits {
		newBits := w &^ c.bits[i]
		added += bits.OnesCount64(newBits)
		c.bits[i] |= w
	}
	return added
}

// Snapshot returns a copy of the raw hit-bitmap words. Snapshots are
// the checkpoint/aggregation currency of the campaign orchestrator:
// they carry no Space pointer, so they can cross shard boundaries
// (every shard builds its own DUT and therefore its own Space), and a
// campaign checkpoint encodes them with encoding/json as they are.
func (c *Set) Snapshot() []uint64 {
	out := make([]uint64, len(c.bits))
	copy(out, c.bits)
	return out
}

// LoadSnapshot replaces the set's bits with a snapshot taken from a
// structurally identical space (same DUT constructor).
func (c *Set) LoadSnapshot(words []uint64) error {
	if len(words) != len(c.bits) {
		return fmt.Errorf("cov: snapshot has %d words, space needs %d", len(words), len(c.bits))
	}
	copy(c.bits, words)
	return nil
}

// MergeWords ORs a raw snapshot into c and returns the number of bins
// that were new to c. Unlike Merge it does not require Space identity,
// only structural equality — the lock-cheap path for aggregating
// per-shard coverage into a fleet-global set.
func (c *Set) MergeWords(words []uint64) (int, error) {
	if len(words) != len(c.bits) {
		return 0, fmt.Errorf("cov: snapshot has %d words, space needs %d", len(words), len(c.bits))
	}
	added := 0
	for i, w := range words {
		newBits := w &^ c.bits[i]
		added += bits.OnesCount64(newBits)
		c.bits[i] |= w
	}
	return added, nil
}

// DiffCount returns the number of bins hit in c but not in other.
func (c *Set) DiffCount(other *Set) int {
	n := 0
	for i, w := range c.bits {
		n += bits.OnesCount64(w &^ other.bits[i])
	}
	return n
}

// CopyFrom overwrites c's bits with src's (same space required). It
// allocates nothing, for callers that own a destination set already.
func (c *Set) CopyFrom(src *Set) {
	if c.space != src.space {
		panic("cov: copying sets from different spaces")
	}
	copy(c.bits, src.bits)
}

// Reset clears all bins.
func (c *Set) Reset() {
	for i := range c.bits {
		c.bits[i] = 0
	}
}

// UncoveredPoints lists names of points with at least one unhit bin,
// for coverage-hole reports.
func (c *Set) UncoveredPoints() []string {
	var out []string
	for id := 0; id < c.space.NumPoints(); id++ {
		t := c.Covered(PointID(id), true)
		f := c.Covered(PointID(id), false)
		switch {
		case !t && !f:
			out = append(out, c.space.Name(PointID(id))+" [never evaluated]")
		case !t:
			out = append(out, c.space.Name(PointID(id))+" [never true]")
		case !f:
			out = append(out, c.space.Name(PointID(id))+" [never false]")
		}
	}
	sort.Strings(out)
	return out
}

// Scores is the Coverage Calculator's evaluation of one test input
// (paper §IV-B).
type Scores struct {
	// Standalone is the number of bins this input hit by itself.
	Standalone int
	// Incremental is the number of bins this input hit that were not
	// in the cumulative total at the start of the current batch.
	Incremental int
}

// Calculator accumulates total coverage and scores each input against
// the previous batch's total, exactly as the paper describes.
type Calculator struct {
	space    *Space
	total    *Set
	snapshot *Set
}

// NewCalculator returns a calculator with empty cumulative coverage.
func NewCalculator(space *Space) *Calculator {
	return &Calculator{space: space, total: space.NewSet(), snapshot: space.NewSet()}
}

// Space returns the condition space.
func (c *Calculator) Space() *Space { return c.space }

// Total returns the cumulative coverage set (live view; do not mutate).
func (c *Calculator) Total() *Set { return c.total }

// BeginBatch snapshots the cumulative total; incremental coverage for
// the following Score calls is computed against this snapshot. The
// snapshot set is reused across batches, keeping the per-round commit
// path free of heap growth (asserted by the core alloc regression
// test).
func (c *Calculator) BeginBatch() {
	c.snapshot.CopyFrom(c.total)
}

// Score evaluates one input's run coverage: merges it into the total
// and returns the two values the reward function consumes.
func (c *Calculator) Score(run *Set) Scores {
	standalone := run.Count()
	incremental := run.DiffCount(c.snapshot)
	c.total.Merge(run)
	return Scores{Standalone: standalone, Incremental: incremental}
}

// RestoreTotal loads a checkpointed cumulative bitmap, replacing the
// calculator's total. The batch snapshot is reset to the restored
// total, so the next Score sees no spurious incremental coverage.
func (c *Calculator) RestoreTotal(words []uint64) error {
	if err := c.total.LoadSnapshot(words); err != nil {
		return err
	}
	c.snapshot.CopyFrom(c.total)
	return nil
}

// Report renders a short human-readable coverage summary.
func (c *Calculator) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "condition coverage: %d/%d bins (%.2f%%)",
		c.total.Count(), c.space.NumBins(), c.total.Percent())
	return b.String()
}
