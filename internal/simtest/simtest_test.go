package simtest_test

import (
	"testing"

	"chatfuzz/internal/cov"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/rtl/boom"
	"chatfuzz/internal/rtl/rocket"
	"chatfuzz/internal/simtest"
)

// TestProgramsReachTheHierarchy keeps the golden set honest: a digest
// over programs that never miss a cache, never store into text and
// never trap would pin nothing about the memory hierarchy. Each named
// condition must be seen both ways over the set, on the DUT that has it.
func TestProgramsReachTheHierarchy(t *testing.T) {
	both := []string{
		"frontend.icache.hit", "frontend.fetch.access_fault", "dcache.hit",
		"dcache.evict_dirty_writeback", "lsu.addr_misaligned", "lsu.access_fault",
		"lsu.sc_success", "lsu.store_breaks_reservation", "lsu.tohost_write",
		"trap.from_umode", "csr.privilege_violation", "csr.write_to_readonly",
		"trap.cause.instruction access fault", "trap.cause.illegal instruction",
		"trap.cause.breakpoint", "trap.cause.load address misaligned",
		"trap.cause.load access fault", "trap.cause.store/AMO address misaligned",
		"trap.cause.store/AMO access fault", "trap.cause.environment call from U-mode",
		"trap.cause.environment call from M-mode", "trap.cause.instruction address misaligned",
	}
	for _, tc := range []struct {
		dut    rtl.DUT
		points []string
	}{
		{rocket.New(), append([]string{"lsu.load_from_text", "lsu.store_to_text", "lsu.load_from_data",
			"lsu.store_to_data", "lsu.addr_unmapped_region", "pipe.hazard.muldiv_busy"}, both...)},
		{boom.New(), append([]string{"lsu.store_queue_full", "lsu.store_to_load_forward",
			"lsu.partial_address_overlap", "rob.flush_branch_mispredict", "rob.commit_bundle_full"}, both...)},
	} {
		total := tc.dut.Space().NewSet()
		tohostFetch := false
		for _, body := range simtest.Programs() {
			img, _ := prog.MustBuild(prog.Program{Body: body})
			res := tc.dut.Run(img, prog.InstructionBudget(len(body)))
			total.Merge(res.Coverage)
			for _, e := range res.Trace {
				tohostFetch = tohostFetch || e.PC == mem.Tohost
			}
		}
		if !tohostFetch {
			t.Errorf("%s: no program fetches from the tohost page", tc.dut.Name())
		}
		// The flush point has no false bin: FENCE.I is the only evaluator.
		seen(t, tc.dut, total, "frontend.icache.fencei_flush", true)
		for _, name := range tc.points {
			seen(t, tc.dut, total, name, true)
			seen(t, tc.dut, total, name, false)
		}
	}
}

func seen(t *testing.T, dut rtl.DUT, total *cov.Set, name string, val bool) {
	t.Helper()
	id, ok := dut.Space().Lookup(name)
	if !ok {
		t.Fatalf("%s has no condition point %q", dut.Name(), name)
	}
	if !total.Covered(id, val) {
		t.Errorf("%s: %q is never %v over the golden set", dut.Name(), name, val)
	}
}
