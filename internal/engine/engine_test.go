package engine_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"chatfuzz/internal/baseline/randinst"
	"chatfuzz/internal/engine"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/trace"
)

// testProgs generates a deterministic batch of valid random programs.
func testProgs(seed int64, n, body int) []prog.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make([]prog.Program, n)
	for i := range out {
		out[i] = prog.Program{Body: randinst.Program(rng, body)}
	}
	return out
}

// reference runs one program the allocating way: fresh DUT.Run and a
// fresh golden-model simulation per call.
func reference(dut rtl.DUT, p prog.Program) (rtl.Result, []trace.Entry) {
	img, _, err := prog.Build(p)
	if err != nil {
		panic(err)
	}
	budget := prog.InstructionBudget(len(p.Body))
	res := dut.Run(img, budget)
	m := mem.Platform()
	m.Load(img)
	g := iss.New(m, img.Entry)
	return res, g.Run(budget)
}

// newEngine builds an engine over a private pool with an explicit
// worker count (0 = the committer runs everything), both released at
// test cleanup.
func newEngine(t *testing.T, dut rtl.DUT, workers int, cfg engine.Config) *engine.Engine {
	t.Helper()
	pool := engine.NewFleetPool(workers, nil)
	cfg.Pool = pool
	e := engine.New(dut, cfg)
	t.Cleanup(func() {
		e.Close()
		pool.Close()
	})
	return e
}

// TestEngineOutcomesMatchDirectRun drives rounds through engines over
// a pool with no workers (the committer runs every entry inline) and
// one with spare workers racing the committer for entries, and checks
// every outcome against the allocating reference execution, across
// multiple rounds so the scratch (memories, caches, coverage sets,
// trace buffers) is actually reused and must prove it resets cleanly.
func TestEngineOutcomesMatchDirectRun(t *testing.T) {
	for _, workers := range []int{0, 3} {
		dut := rocket.New()
		ref := rocket.New()
		e := newEngine(t, dut, workers, engine.Config{Detect: true})

		for round := 0; round < 3; round++ {
			progs := testProgs(int64(100*workers+round), 8, 20)
			r := e.Submit(progs)
			r.Each(func(i int, o *engine.Outcome) {
				if o.Err != nil {
					t.Fatalf("workers=%d round %d test %d: unexpected build error %v", workers, round, i, o.Err)
				}
				wantRes, wantGolden := reference(ref, progs[i])
				if o.Res.Cycles != wantRes.Cycles || o.Res.Halted != wantRes.Halted ||
					o.Res.ExitCode != wantRes.ExitCode || o.Res.Regs != wantRes.Regs {
					t.Fatalf("workers=%d round %d test %d: result diverged from reference", workers, round, i)
				}
				if !reflect.DeepEqual(o.Res.Trace, wantRes.Trace) {
					t.Fatalf("workers=%d round %d test %d: DUT trace diverged", workers, round, i)
				}
				if !reflect.DeepEqual(o.Res.Coverage.Snapshot(), wantRes.Coverage.Snapshot()) {
					t.Fatalf("workers=%d round %d test %d: coverage diverged", workers, round, i)
				}
				if !reflect.DeepEqual(o.Golden, wantGolden) {
					t.Fatalf("workers=%d round %d test %d: golden trace diverged", workers, round, i)
				}
			})
		}
	}
}

// TestEngineReportsBuildErrors: an oversized body must surface as
// Outcome.Err in its input slot, with the other entries unaffected.
func TestEngineReportsBuildErrors(t *testing.T) {
	dut := rocket.New()
	e := newEngine(t, dut, 1, engine.Config{Detect: true})

	progs := testProgs(7, 4, 12)
	progs[2] = prog.Program{Body: make([]uint32, prog.MaxBodyInstructions+1)}
	r := e.Submit(progs)
	r.Each(func(i int, o *engine.Outcome) {
		if i == 2 {
			if o.Err == nil {
				t.Error("oversized program did not report a build error")
			}
			if o.Res.Coverage != nil || o.Golden != nil {
				t.Error("failed build still produced simulation results")
			}
			return
		}
		if o.Err != nil {
			t.Errorf("test %d: unexpected error %v", i, o.Err)
		}
		if o.Res.Cycles == 0 {
			t.Errorf("test %d: did not simulate", i)
		}
	})
}

// TestConcurrentEngines runs several engines at once, each over its
// own one-worker pool (the shape of several standalone fuzzers in one
// process), to exercise the free lists and worker loops under the race
// detector.
func TestConcurrentEngines(t *testing.T) {
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			dut := rocket.New()
			e := newEngine(t, dut, 1, engine.Config{Detect: true})
			for round := 0; round < 2; round++ {
				progs := testProgs(int64(1000+10*s+round), 6, 16)
				got := 0
				e.Submit(progs).Each(func(i int, o *engine.Outcome) {
					if o.Err == nil && o.Res.Cycles > 0 {
						got++
					}
				})
				if got != len(progs) {
					t.Errorf("shard %d round %d: %d/%d outcomes", s, round, got, len(progs))
				}
			}
		}(s)
	}
	wg.Wait()
}
