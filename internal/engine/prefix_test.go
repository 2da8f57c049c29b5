package engine

// Tests of Outcome.Same: the prefix of both traces the detector may
// skip is granted only for a resumed DUT run whose restored entries
// this executor once saw equal the golden prologue.

import (
	"math/rand"
	"slices"
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/trace"
)

// corruptDUT vends runners that report their restored prefix honestly
// in length but alter entry bad of it — a checkpoint that disagrees
// with the golden prologue.
type corruptDUT struct {
	rtl.ReusableDUT
	bad int
}

func (d corruptDUT) NewRunner() rtl.Runner { return corruptRunner{d.ReusableDUT.NewRunner(), d.bad} }

type corruptRunner struct {
	rtl.Runner
	bad int
}

func (r corruptRunner) RunScratch(img mem.Image, maxInsts int, set *cov.Set, tr []trace.Entry) rtl.Result {
	res := r.Runner.RunScratch(img, maxInsts, set, tr)
	if res.Restored > r.bad {
		res.Trace[r.bad].RdVal ^= 1
	}
	return res
}

// resetDUT vends runners that always simulate from reset.
type resetDUT struct{ rtl.ReusableDUT }

func (d resetDUT) NewRunner() rtl.Runner { return resetRunner{d} }

type resetRunner struct{ d resetDUT }

func (r resetRunner) RunScratch(img mem.Image, maxInsts int, _ *cov.Set, _ []trace.Entry) rtl.Result {
	return r.d.Run(img, maxInsts)
}

// runSame drives two rounds of random programs through an engine over
// dut with no pool workers and returns every outcome's Same, feeding
// each outcome to det the way the commit path does when det is non-nil.
func runSame(t *testing.T, dut rtl.DUT, det *mismatch.Detector) []int {
	t.Helper()
	pool := NewFleetPool(0, nil)
	defer pool.Close()
	e := New(dut, Config{Detect: true, Pool: pool})
	defer e.Close()
	rng := rand.New(rand.NewSource(11))
	var same []int
	for round := 0; round < 2; round++ {
		e.Submit(randomProgs(rng, 6, 12)).Each(func(_ int, o *Outcome) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
			if o.Same > 0 && !slices.Equal(o.Res.Trace[:o.Same], o.Golden[:o.Same]) {
				t.Fatalf("Same = %d but the traces differ inside it", o.Same)
			}
			same = append(same, o.Same)
			if det != nil {
				det.Observe(len(same), o.Res.Trace, o.Golden, o.Same)
			}
		})
	}
	return same
}

// TestSamePrefixOnResume: on the real cores every test after the one
// that captured the runner's checkpoint skips exactly the prologue.
func TestSamePrefixOnResume(t *testing.T) {
	img, _ := prog.MustBuild(prog.Program{})
	pro := prologueFor(img.Entry)
	if !pro.ok || len(pro.trace) != 109 {
		t.Fatalf("harness prologue: ok=%v, %d entries; want 109", pro.ok, len(pro.trace))
	}
	for _, dut := range []rtl.DUT{rocket.New(), boom.New()} {
		same := runSame(t, dut, nil)
		if same[0] != 0 {
			t.Errorf("%s: the capturing run (from reset) has Same = %d, want 0", dut.Name(), same[0])
		}
		for i, n := range same[1:] {
			if n != len(pro.trace) {
				t.Errorf("%s test %d: Same = %d, want %d", dut.Name(), i+1, n, len(pro.trace))
			}
		}
	}
}

// TestSamePrefixRefusesForeignCheckpoint: a runner whose restored
// prefix differs from the golden prologue in one entry never gets the
// skip, and the detector finds the divergence at that entry's index.
func TestSamePrefixRefusesForeignCheckpoint(t *testing.T) {
	const bad = 50
	det := mismatch.NewDetector()
	for i, n := range runSame(t, corruptDUT{rocket.New(), bad}, det) {
		if n != 0 {
			t.Errorf("test %d: Same = %d over a corrupted prefix, want 0", i, n)
		}
	}
	found := false
	for _, r := range det.Unique() {
		found = found || r.Example.Index == bad
	}
	if !found {
		t.Errorf("no mismatch recorded at the corrupted index %d: %s", bad, det.Report())
	}
}

// TestSamePrefixZeroFromReset: a runner that never resumes restores
// nothing, so nothing is skipped.
func TestSamePrefixZeroFromReset(t *testing.T) {
	for i, n := range runSame(t, resetDUT{rocket.New()}, nil) {
		if n != 0 {
			t.Errorf("test %d: Same = %d from reset, want 0", i, n)
		}
	}
}
