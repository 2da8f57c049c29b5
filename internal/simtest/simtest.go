// Package simtest is test support shared by the three simulators
// (internal/iss, internal/rtl/rocket, internal/rtl/boom): a seeded
// generator of wild harness bodies and a digest over everything a
// simulation reports. The simulators' TestGoldenSimulation tests pin
// that digest, so a change to the memory hierarchy or to a core's step
// loop has to reproduce every trace entry, register, cycle count and
// coverage bit of the commit the digests were recorded on.
package simtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
	"chatfuzz/internal/prog"
	"chatfuzz/internal/rtl"
	"chatfuzz/internal/trace"
)

// Register pools of the generated bodies. Destinations stay inside
// a0-a7/t0-t2, so the harness's s-register pointers (data, text, body,
// misaligned) and tp (unmapped) keep their reset values for the whole
// body and every access category stays reachable.
var (
	dstRegs  = []isa.Reg{isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5, isa.A6, isa.A7, isa.T0, isa.T1, isa.T2}
	srcRegs  = append([]isa.Reg{0, isa.S1, isa.S3, isa.S4, isa.S10, isa.RA}, dstRegs...)
	dataRegs = []isa.Reg{isa.S0, isa.S2, isa.S11, isa.GP, isa.SP}
	// wildRegs point at text (s8, s9: self-modifying stores), at
	// misaligned data (s5, s6, s7), at nothing (tp), or anywhere (a0).
	wildRegs = []isa.Reg{isa.S8, isa.S9, isa.S9, isa.S5, isa.S6, isa.S7, isa.TP, isa.A0}

	aluOps = []isa.Op{isa.OpADD, isa.OpSUB, isa.OpSLL, isa.OpSLT, isa.OpSLTU, isa.OpXOR, isa.OpSRL,
		isa.OpSRA, isa.OpOR, isa.OpAND, isa.OpADDW, isa.OpSUBW, isa.OpSLLW, isa.OpSRLW, isa.OpSRAW}
	immOps = []isa.Op{isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI, isa.OpSLTI, isa.OpSLTIU, isa.OpADDIW}
	shOps  = []isa.Op{isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLLIW, isa.OpSRLIW, isa.OpSRAIW}
	mdOps  = []isa.Op{isa.OpMUL, isa.OpMULH, isa.OpMULHSU, isa.OpMULHU, isa.OpDIV, isa.OpDIVU, isa.OpREM,
		isa.OpREMU, isa.OpMULW, isa.OpDIVW, isa.OpDIVUW, isa.OpREMW, isa.OpREMUW}
	ldOps  = []isa.Op{isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU}
	stOps  = []isa.Op{isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD}
	brOps  = []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
	amoOps = []isa.Op{isa.OpAMOSWAPW, isa.OpAMOADDW, isa.OpAMOXORW, isa.OpAMOANDW, isa.OpAMOORW,
		isa.OpAMOMINW, isa.OpAMOMAXW, isa.OpAMOMINUW, isa.OpAMOMAXUW, isa.OpAMOSWAPD, isa.OpAMOADDD,
		isa.OpAMOXORD, isa.OpAMOANDD, isa.OpAMOORD, isa.OpAMOMIND, isa.OpAMOMAXD, isa.OpAMOMINUD, isa.OpAMOMAXUD}
	csrOps  = []isa.Op{isa.OpCSRRW, isa.OpCSRRS, isa.OpCSRRC, isa.OpCSRRWI, isa.OpCSRRSI, isa.OpCSRRCI}
	csrAddr = append([]uint16{isa.CSRMScratch, isa.CSRMScratch, isa.CSRMEPC, 0x7C0, 0xC00}, isa.KnownCSRs...)
)

// Programs returns the golden set: 64 bodies that between them
// load and store into text and data at every width, overwrite their own
// instructions with and without a following FENCE.I, run AMOs and LR/SC
// pairs, read and write CSRs (known, unknown, read-only), drop to
// U-mode, raise every synchronous trap, and jump into the tohost page.
// A third of them keep the harness trap handler (the first trap ends
// the test), a third install a handler that skips the faulting
// instruction, and a third point mtvec back at the body.
func Programs() [][]uint32 {
	bodies := make([][]uint32, 64)
	for i := range bodies {
		bodies[i] = body(rand.New(rand.NewSource(int64(1000+i))), i)
	}
	return bodies
}

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func body(rng *rand.Rand, variant int) []uint32 {
	var b []uint32
	emit := func(ws ...uint32) { b = append(b, ws...) }
	dst := func() isa.Reg { return pick(rng, dstRegs) }
	src := func() isa.Reg { return pick(rng, srcRegs) }

	switch variant % 3 {
	case 1:
		// jal over a handler that skips the trapping instruction and
		// returns to the privilege it came from; mtvec <- that handler.
		emit(isa.Enc(isa.OpJAL, 0, 0, 0, 20),
			isa.EncCSR(isa.OpCSRRS, isa.T6, 0, isa.CSRMEPC),
			isa.Enc(isa.OpADDI, isa.T6, isa.T6, 0, 4),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T6, isa.CSRMEPC),
			isa.Encode(isa.Inst{Op: isa.OpMRET}),
			isa.Enc(isa.OpADDI, isa.T5, isa.S9, 0, 4),
			isa.EncCSR(isa.OpCSRRW, 0, isa.T5, isa.CSRMTVec))
	case 2:
		emit(isa.EncCSR(isa.OpCSRRW, 0, isa.S9, isa.CSRMTVec))
	}

	n := 40 + rng.Intn(80)
	dropAt := -1
	if variant%2 == 1 {
		dropAt = rng.Intn(n)
	}
	for len(b) < n {
		if len(b) >= dropAt && dropAt >= 0 {
			// mepc <- the instruction after the mret; MPP resets to U.
			dropAt = -1
			emit(isa.Enc(isa.OpAUIPC, isa.T5, 0, 0, 0),
				isa.Enc(isa.OpADDI, isa.T5, isa.T5, 0, 16),
				isa.EncCSR(isa.OpCSRRW, 0, isa.T5, isa.CSRMEPC),
				isa.Encode(isa.Inst{Op: isa.OpMRET}))
		}
		switch rng.Intn(25) {
		case 0, 1, 2:
			emit(isa.Enc(pick(rng, aluOps), dst(), src(), src(), 0))
		case 3, 4:
			emit(isa.Enc(pick(rng, immOps), dst(), src(), 0, int64(rng.Intn(4096)-2048)))
		case 5:
			emit(isa.Enc(pick(rng, shOps), dst(), src(), 0, int64(rng.Intn(32))))
		case 6:
			for i := rng.Intn(3); i >= 0; i-- { // back-to-back: the unit is busy
				emit(isa.Enc(pick(rng, mdOps), dst(), src(), src(), 0))
			}
		case 7, 8:
			rd := dst()
			if rng.Intn(6) == 0 {
				rd = 0
			}
			emit(isa.Enc(pick(rng, ldOps), rd, pick(rng, dataRegs), 0, int64(rng.Intn(256))*8-1024))
		case 9:
			w, base, off := rng.Intn(4), pick(rng, dataRegs), int64(rng.Intn(256))*8-1024
			emit(isa.Enc(stOps[w], 0, base, src(), off))
			switch rng.Intn(4) {
			case 0: // same address and width: the store queue forwards
				emit(isa.Enc(ldOps[w], dst(), base, 0, off))
			case 1: // a byte inside the stored bytes: partial overlap
				emit(isa.Enc(isa.OpLBU, dst(), base, 0, off))
			}
		case 10:
			// Stores at a 4 KiB stride from s0 all land in one D-cache
			// set; a run of them evicts dirty lines at any associativity.
			emit(isa.Enc(isa.OpLUI, isa.T4, 0, 0, 1<<12), isa.Enc(isa.OpADD, isa.T3, isa.S0, 0, 0))
			for i := 1 + rng.Intn(12)*rng.Intn(2); i > 0; i-- {
				emit(isa.Enc(isa.OpADD, isa.T3, isa.T3, isa.T4, 0), isa.Enc(isa.OpSD, 0, isa.T3, src(), 0))
			}
		case 11:
			// Any width at any offset: misaligned, page-straddling,
			// text-reading and unmapped loads.
			emit(isa.Enc(pick(rng, ldOps), dst(), pick(rng, wildRegs), 0, int64(rng.Intn(4096)-2048)))
		case 12:
			emit(isa.Enc(pick(rng, stOps), 0, pick(rng, wildRegs), src(), int64(rng.Intn(4096)-2048)))
		case 13:
			// Self-modifying store: copy an earlier body word over a slot
			// a little ahead of the store, sometimes fenced.
			from := int64(rng.Intn(len(b)+1)) * 4
			to := int64(len(b)+2+rng.Intn(6)) * 4
			emit(isa.Enc(isa.OpLW, isa.T4, isa.S9, 0, from), isa.Enc(isa.OpSW, 0, isa.S9, isa.T4, to))
			if rng.Intn(2) == 0 {
				emit(isa.Encode(isa.Inst{Op: isa.OpFENCEI}))
			}
		case 14:
			rd := dst()
			if rng.Intn(4) == 0 {
				rd = 0
			}
			emit(isa.EncAMO(pick(rng, amoOps), rd, pick(rng, dataRegs), src(), rng.Intn(2) == 0, rng.Intn(2) == 0))
		case 15:
			base := pick(rng, dataRegs)
			lr, sc := isa.OpLRW, isa.OpSCW
			if rng.Intn(2) == 0 {
				lr, sc = isa.OpLRD, isa.OpSCD
			}
			emit(isa.EncAMO(lr, dst(), base, 0, false, false))
			if rng.Intn(3) == 0 {
				emit(isa.Enc(isa.OpSD, 0, base, src(), 0)) // breaks the reservation
			}
			emit(isa.EncAMO(sc, dst(), pick(rng, []isa.Reg{base, base, isa.S2}), src(), false, false))
		case 16, 17:
			emit(isa.EncCSR(pick(rng, csrOps), dst(), isa.Reg(rng.Intn(32)), pick(rng, csrAddr)))
		case 18, 19:
			// Short forward or backward branch; backward ones loop until
			// the operands change or the budget runs out.
			off := int64(1+rng.Intn(4)) * 4
			if rng.Intn(3) == 0 {
				off = -off
			}
			emit(isa.Enc(pick(rng, brOps), 0, src(), src(), off))
		case 20:
			switch rng.Intn(5) {
			case 4:
				emit(isa.Enc(isa.OpJALR, 0, isa.RA, 0, int64(rng.Intn(len(b)+8))*4)) // ret with no call
			case 0:
				emit(isa.Enc(isa.OpJAL, pick(rng, []isa.Reg{0, isa.RA, isa.T0}), 0, 0, int64(1+rng.Intn(4))*4))
			case 1:
				// call over a jump to a ret that comes back to the jump
				emit(isa.Enc(isa.OpJAL, isa.RA, 0, 0, 8), isa.Enc(isa.OpJAL, 0, 0, 0, 8),
					isa.Enc(isa.OpJALR, 0, isa.RA, 0, 0))
			case 2:
				emit(isa.Enc(isa.OpJALR, pick(rng, []isa.Reg{0, isa.RA}), isa.S9, 0, int64(rng.Intn(len(b)+8))*4))
			case 3:
				emit(isa.Enc(isa.OpJALR, 0, src(), 0, int64(rng.Intn(8)))) // wild or misaligned target
			}
		case 21, 24:
			emit(pick(rng, []uint32{
				isa.Encode(isa.Inst{Op: isa.OpECALL}), isa.Encode(isa.Inst{Op: isa.OpEBREAK}),
				isa.Encode(isa.Inst{Op: isa.OpWFI}), isa.Encode(isa.Inst{Op: isa.OpFENCE}),
				isa.Encode(isa.Inst{Op: isa.OpFENCEI}), isa.Encode(isa.Inst{Op: isa.OpMRET}),
			}))
		case 22:
			emit(rng.Uint32()) // mostly illegal or compressed parcels
		case 23:
			if rng.Intn(4) != 0 {
				emit(isa.Enc(isa.OpLUI, dst(), 0, 0, int64(int32(rng.Uint32()&^0xFFF))))
				continue
			}
			// Jump into the tohost page (s8 = TextBase, tohost sits 2 MiB
			// above it), half the time after planting a body word there:
			// the fetch is mapped, the line fill reads past the device's
			// eight bytes, and the word after next is a fetch fault.
			emit(isa.Enc(isa.OpLUI, isa.T3, 0, 0, 0x200000), isa.Enc(isa.OpADD, isa.T3, isa.T3, isa.S8, 0))
			if rng.Intn(2) == 0 {
				emit(isa.Enc(isa.OpLW, isa.T4, isa.S9, 0, int64(rng.Intn(len(b)+1))*4),
					isa.Enc(isa.OpSW, 0, isa.T3, isa.T4, 0))
			}
			emit(isa.Enc(isa.OpJALR, 0, isa.T3, 0, 0))
		}
	}
	return b
}

// Digest accumulates a SHA-256 over simulation results in a fixed
// little-endian layout.
type Digest struct{ h hash.Hash }

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Words adds 64-bit values.
func (d *Digest) Words(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.h.Write(buf[:])
	}
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Outcome adds a run's termination state and register file.
func (d *Digest) Outcome(halted bool, exitCode uint64, regs [32]uint64) {
	d.Words(flag(halted), exitCode)
	d.Words(regs[:]...)
}

// Trace adds every field of every entry, preceded by the entry count.
func (d *Digest) Trace(tr []trace.Entry) {
	d.Words(uint64(len(tr)))
	for _, e := range tr {
		d.Words(e.PC, uint64(e.Raw), uint64(e.Op),
			flag(e.RdValid), uint64(e.Rd), e.RdVal,
			flag(e.MemValid), e.MemAddr, flag(e.MemWrite),
			flag(e.Trap), e.Cause, e.TVal, uint64(e.Priv))
	}
}

// Result adds everything a DUT run reports.
func (d *Digest) Result(res rtl.Result) {
	d.Trace(res.Trace)
	d.Words(res.Cycles)
	d.Outcome(res.Halted, res.ExitCode, res.Regs)
	d.Words(res.Coverage.Snapshot()...)
}

// Sum returns the hex digest of everything added so far.
func (d *Digest) Sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// CheckGoldenDUT runs the golden set through dut.Run and through one
// reused runner, coverage set and trace buffer, and requires both
// digests to equal want.
func CheckGoldenDUT(t *testing.T, dut rtl.ReusableDUT, want string) {
	t.Helper()
	runner := dut.NewRunner()
	set := dut.Space().NewSet()
	var buf []trace.Entry
	fresh, reused := NewDigest(), NewDigest()
	for _, body := range Programs() {
		img, _ := prog.MustBuild(prog.Program{Body: body})
		fresh.Result(dut.Run(img, prog.InstructionBudget(len(body))))
		set.Reset()
		res := runner.RunScratch(img, prog.InstructionBudget(len(body)), set, buf)
		buf = res.Trace
		reused.Result(res)
	}
	if got := fresh.Sum(); got != want {
		t.Errorf("Run digest = %s, want %s", got, want)
	}
	if got := reused.Sum(); got != want {
		t.Errorf("RunScratch digest = %s, want %s", got, want)
	}
}

// CheckRunScratchAllocFree requires a warmed runner with a pre-sized
// trace buffer to run the whole golden set — bodies that trap, miss
// both caches, evict dirty lines and keep the ROB and store queue
// turning over — without allocating.
func CheckRunScratchAllocFree(t *testing.T, dut rtl.ReusableDUT) {
	t.Helper()
	bodies := Programs()
	imgs := make([]mem.Image, len(bodies))
	longest := 0
	for i, body := range bodies {
		imgs[i], _ = prog.MustBuild(prog.Program{Body: body})
		longest = max(longest, prog.InstructionBudget(len(body)))
	}
	runner := dut.NewRunner()
	set := dut.Space().NewSet()
	buf := make([]trace.Entry, 0, longest)
	pass := func() {
		for i, img := range imgs {
			set.Reset()
			runner.RunScratch(img, prog.InstructionBudget(len(bodies[i])), set, buf)
		}
	}
	pass() // first touch allocates the memory's pages
	if n := testing.AllocsPerRun(3, pass); n != 0 {
		t.Errorf("a warmed %s runner allocates %.0f times over the golden set, want 0", dut.Name(), n)
	}
}
