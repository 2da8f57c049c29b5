package mismatch_test

import (
	"fmt"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/iss"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/mismatch"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl/rocket"
)

// The paper's §V-B triage in miniature, with no ML: one hand-written
// trigger program for each of the five findings runs on the Rocket
// model and on the golden-model ISS, and the detector clusters and
// classifies the divergences.
func ExampleDetector() {
	det := mismatch.NewDetector()
	dut := rocket.New()

	triggers := []struct {
		name string
		body []uint32
		data []uint32 // optional preload at DataBase+0x2000 (s0)
	}{
		{
			name: "Bug2: mul/div writeback missing from trace",
			body: []uint32{
				isa.Enc(isa.OpMUL, isa.A2, isa.A5, isa.A5, 0),
				isa.Enc(isa.OpDIV, isa.A3, isa.A4, isa.A3, 0),
			},
		},
		{
			name: "Finding1: exception priority (unmapped+misaligned)",
			body: []uint32{
				isa.Enc(isa.OpADDI, isa.TP, isa.TP, 0, 1),
				isa.Enc(isa.OpLW, isa.A0, isa.TP, 0, 0),
			},
		},
		{
			name: "Finding2: AMO with rd=x0 in trace",
			body: []uint32{
				isa.Enc(isa.OpADDI, isa.T1, 0, 0, 7),
				isa.Enc(isa.OpSD, 0, isa.A0, isa.T1, 0),
				isa.EncAMO(isa.OpAMOORD, 0, isa.A0, isa.A5, false, false),
			},
		},
		{
			name: "Finding3: load to x0 in trace",
			body: []uint32{
				isa.Enc(isa.OpLD, 0, isa.A0, 0, 0),
			},
		},
		{
			name: "Bug1: self-modifying code without FENCE.I",
			body: []uint32{
				isa.Enc(isa.OpAUIPC, isa.A0, 0, 0, 0),
				isa.Enc(isa.OpADDI, isa.A2, 0, 0, 0),
				isa.Enc(isa.OpADDI, isa.A1, 0, 0, 1), // victim
				isa.Enc(isa.OpLW, isa.T1, isa.S0, 0, 0),
				isa.Enc(isa.OpSW, 0, isa.A0, isa.T1, 8),
				isa.Enc(isa.OpADDI, isa.A2, isa.A2, 0, 1),
				isa.Enc(isa.OpADDI, isa.T2, 0, 0, 2),
				isa.Enc(isa.OpBLT, 0, isa.A2, isa.T2, -20),
			},
			data: []uint32{isa.Enc(isa.OpADDI, isa.A1, 0, 0, 2)}, // the patch word
		},
	}

	for i, tr := range triggers {
		fmt.Printf("=== %s ===\n", tr.name)
		img, _ := prog.MustBuild(prog.Program{Body: tr.body})
		if tr.data != nil {
			var seg mem.Image
			seg.AddWords(mem.DataBase+0x2000, tr.data)
			img.Segments = append(img.Segments, seg.Segments...)
		}
		budget := prog.InstructionBudget(len(tr.body))

		res := dut.Run(img, budget)
		m := mem.Platform()
		m.Load(img)
		golden := iss.New(m, img.Entry).Run(budget)

		for _, mm := range det.Analyze(i, res.Trace, golden) {
			fmt.Printf("  mismatch [%s] -> %s\n", mm.Kind, mm.Finding)
			fmt.Printf("    DUT:    %s\n", mm.DUT)
			fmt.Printf("    golden: %s\n", mm.Golden)
		}
	}
	fmt.Print(det.Report())
	// Output:
	// === Bug2: mul/div writeback missing from trace ===
	//   mismatch [rd-write-presence] -> Bug2: tracer omits MUL/DIV rd write (CWE-440)
	//     DUT:    [M] pc=0000000080000800 (02f78633) mul a2, a5, a5
	//     golden: [M] pc=0000000080000800 (02f78633) mul a2, a5, a5 a2<-0000000000000019
	//   mismatch [rd-write-presence] -> Bug2: tracer omits MUL/DIV rd write (CWE-440)
	//     DUT:    [M] pc=0000000080000804 (02d746b3) div a3, a4, a3
	//     golden: [M] pc=0000000080000804 (02d746b3) div a3, a4, a3 a3<-8000000000000000
	// === Finding1: exception priority (unmapped+misaligned) ===
	//   mismatch [trap-cause] -> Finding1: exception priority inversion
	//     DUT:    [M] pc=0000000080000804 (00022503) lw a0, 0(tp) TRAP cause=5 (load access fault) tval=0x100001
	//     golden: [M] pc=0000000080000804 (00022503) lw a0, 0(tp) TRAP cause=4 (load address misaligned) tval=0x100001
	//   mismatch [rd-value] -> unknown
	//     DUT:    [M] pc=0000000080000400 (34202ff3) csrrs t6, mcause, zero t6<-0000000000000005
	//     golden: [M] pc=0000000080000400 (34202ff3) csrrs t6, mcause, zero t6<-0000000000000004
	//   mismatch [rd-value] -> unknown
	//     DUT:    [M] pc=0000000080000404 (001f8f93) addi t6, t6, 1 t6<-0000000000000006
	//     golden: [M] pc=0000000080000404 (001f8f93) addi t6, t6, 1 t6<-0000000000000005
	//   mismatch [rd-value] -> unknown
	//     DUT:    [M] pc=0000000080000408 (001f9f93) slli t6, t6, 1 t6<-000000000000000c
	//     golden: [M] pc=0000000080000408 (001f9f93) slli t6, t6, 1 t6<-000000000000000a
	//   mismatch [rd-value] -> unknown
	//     DUT:    [M] pc=000000008000040c (001fef93) ori t6, t6, 1 t6<-000000000000000d
	//     golden: [M] pc=000000008000040c (001fef93) ori t6, t6, 1 t6<-000000000000000b
	// === Finding2: AMO with rd=x0 in trace ===
	//   mismatch [rd-write-presence] -> Finding2: AMO with rd=x0 in trace
	//     DUT:    [M] pc=0000000080000808 (40f5302f) amoor.d zero, a5, (a0) zero<-0000000000000007 mem[0000000080100000]W
	//     golden: [M] pc=0000000080000808 (40f5302f) amoor.d zero, a5, (a0) mem[0000000080100000]W
	// === Finding3: load to x0 in trace ===
	//   mismatch [rd-write-presence] -> Finding3: trace write to x0
	//     DUT:    [M] pc=0000000080000800 (00053003) ld zero, 0(a0) zero<-0000000000000000 mem[0000000080100000]R
	//     golden: [M] pc=0000000080000800 (00053003) ld zero, 0(a0) mem[0000000080100000]R
	// === Bug1: self-modifying code without FENCE.I ===
	//   mismatch [stale-fetch] -> Bug1: FENCE.I cache coherency (CWE-1202)
	//     DUT:    [M] pc=0000000080000808 (00100593) addi a1, zero, 1 a1<-0000000000000001
	//     golden: [M] pc=0000000080000808 (00200593) addi a1, zero, 2 a1<-0000000000000002
	// mismatch detection over 5 tests
	//   raw mismatches:        10 (0 filtered as false positives)
	//   unique signatures:     10 (10 after filtration)
	//   classified findings:
	//     [x] Bug1: FENCE.I cache coherency (CWE-1202)              1 instances
	//     [x] Bug2: tracer omits MUL/DIV rd write (CWE-440)         2 instances
	//     [x] Finding1: exception priority inversion                1 instances
	//     [x] Finding2: AMO with rd=x0 in trace                     1 instances
	//     [x] Finding3: trace write to x0                           1 instances
}
