// Package corpus implements the paper's machine-language dataset
// (§III-A): the "static data collection" that extracts function-shaped
// machine code from compiled binaries (the authors compile the Linux
// kernel and obtain ~500 K test vectors).
//
// Since shipping kernel binaries is not possible here, the package is
// a synthetic compiler back-end: it emits RV64 functions built from
// the idioms real compilers produce — prologue/epilogue, dependent
// ALU chains, counted loops, stack spills, guarded blocks, local
// calls, atomics (LR/SC retry loops), CSR access — over deliberately
// bounded register and immediate pools.
//
// The two properties the paper needs from the dataset are preserved:
// instructions within one function are interdependent and data/control
// flow entangled, and operand diversity is bounded so the 16-bit
// parcel tokenizer's vocabulary stays compact.
//
//chatfuzz:deterministic package
package corpus

import (
	"math/rand"

	"chatfuzz/internal/isa"
)

// Config parameterises corpus generation.
type Config struct {
	Seed      int64
	Functions int
	MinLen    int // minimum instructions per function (pre-epilogue)
	MaxLen    int
}

// DefaultConfig returns a laptop-scale corpus configuration. The
// full-scale (paper) configuration raises Functions so the corpus
// reaches ~500 K instructions.
func DefaultConfig() Config {
	return Config{Seed: 1, Functions: 2000, MinLen: 12, MaxLen: 48}
}

// Corpus is the generated dataset.
type Corpus struct {
	Functions [][]uint32
}

// Instructions returns the total number of instruction words.
func (c *Corpus) Instructions() int {
	n := 0
	for _, f := range c.Functions {
		n += len(f)
	}
	return n
}

// regPool is the bounded register set the synthetic compiler
// allocates from (mirrors a compiler's preferred allocation order).
var regPool = []isa.Reg{
	isa.A0, isa.A1, isa.A2, isa.A3, isa.A4, isa.A5,
	isa.T0, isa.T1, isa.T2, isa.S1, isa.S3, isa.S4,
}

// basePool holds pointer registers the harness initialises to mapped
// data addresses.
var basePool = []isa.Reg{isa.SP, isa.GP, isa.S0, isa.S2, isa.A7}

// immPool is the bounded set of arithmetic immediates.
var immPool = []int64{0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64, 255, 1024, 2047, -1, -2, -8, -16, -256, -2048}

type gen struct {
	rng  *rand.Rand
	code []uint32
}

func (g *gen) emit(ws ...uint32) { g.code = append(g.code, ws...) }

func (g *gen) reg() isa.Reg  { return regPool[g.rng.Intn(len(regPool))] }
func (g *gen) base() isa.Reg { return basePool[g.rng.Intn(len(basePool))] }
func (g *gen) imm() int64    { return immPool[g.rng.Intn(len(immPool))] }
func (g *gen) memOff() int64 { return int64(g.rng.Intn(32)) * 8 }

// arithChain emits 3..8 dependent ALU operations through one register.
func (g *gen) arithChain() {
	ops := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpOR, isa.OpAND,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
		isa.OpADDW, isa.OpSUBW, isa.OpSLLW, isa.OpSRLW, isa.OpSRAW,
		isa.OpMULHU, isa.OpMULHSU}
	acc := g.reg()
	n := 3 + g.rng.Intn(6)
	for i := 0; i < n; i++ {
		if g.rng.Intn(3) == 0 {
			immOps := []isa.Op{isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI,
				isa.OpADDIW, isa.OpSLTI, isa.OpSLTIU, isa.OpSLLIW, isa.OpSRLIW, isa.OpSRAIW}
			op := immOps[g.rng.Intn(len(immOps))]
			imm := g.imm()
			if op.Format() == isa.FmtShiftW {
				imm = int64(g.rng.Intn(32))
			}
			g.emit(isa.Enc(op, acc, acc, 0, imm))
		} else {
			g.emit(isa.Enc(ops[g.rng.Intn(len(ops))], acc, acc, g.reg(), 0))
		}
	}
}

// shiftImm emits shift-immediate forms (distinct encodings from
// reg-reg shifts).
func (g *gen) shiftImm() {
	r := g.reg()
	g.emit(isa.Enc(isa.OpSLLI, r, r, 0, int64(g.rng.Intn(64))))
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Enc(isa.OpSRLI, r, r, 0, int64(g.rng.Intn(64))))
	} else {
		g.emit(isa.Enc(isa.OpSRAI, r, r, 0, int64(g.rng.Intn(64))))
	}
}

// loadCompute emits load → compute → store through a mapped base.
func (g *gen) loadCompute() {
	b := g.base()
	off := g.memOff()
	r1, r2 := g.reg(), g.reg()
	loads := []isa.Op{isa.OpLD, isa.OpLW, isa.OpLWU, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU, isa.OpLD}
	g.emit(isa.Enc(loads[g.rng.Intn(len(loads))], r1, b, 0, off))
	g.emit(isa.Enc(isa.OpADD, r2, r1, r2, 0))
	stores := []isa.Op{isa.OpSD, isa.OpSW, isa.OpSH, isa.OpSB}
	g.emit(isa.Enc(stores[g.rng.Intn(len(stores))], 0, b, r2, g.memOff()))
}

// countedLoop emits li counter; body; addi -1; bne back — the core
// data/control-flow entanglement idiom.
func (g *gen) countedLoop() {
	cnt := g.reg()
	acc := g.reg()
	if acc == cnt {
		acc = isa.T2
	}
	trips := 2 + g.rng.Intn(6)
	g.emit(isa.Enc(isa.OpADDI, cnt, 0, 0, int64(trips)))
	bodyLen := 1 + g.rng.Intn(3)
	for i := 0; i < bodyLen; i++ {
		g.emit(isa.Enc(isa.OpADDW, acc, acc, cnt, 0))
	}
	g.emit(isa.Enc(isa.OpADDI, cnt, cnt, 0, -1))
	back := -int64(bodyLen+1) * 4
	g.emit(isa.Enc(isa.OpBNE, 0, cnt, 0, back))
}

// guardedBlock emits a compare + forward branch over a short block.
func (g *gen) guardedBlock() {
	br := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
	blockLen := 1 + g.rng.Intn(3)
	g.emit(isa.Enc(br[g.rng.Intn(len(br))], 0, g.reg(), g.reg(), int64(blockLen+1)*4))
	for i := 0; i < blockLen; i++ {
		g.emit(isa.Enc(isa.OpADDI, g.reg(), g.reg(), 0, g.imm()))
	}
}

// mulDivBlock emits an M-extension cluster.
func (g *gen) mulDivBlock() {
	ops := []isa.Op{isa.OpMUL, isa.OpMULH, isa.OpMULHU, isa.OpMULHSU, isa.OpDIV,
		isa.OpDIVU, isa.OpREM, isa.OpREMU, isa.OpMULW, isa.OpDIVW, isa.OpDIVUW,
		isa.OpREMW, isa.OpREMUW}
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		g.emit(isa.Enc(ops[g.rng.Intn(len(ops))], g.reg(), g.reg(), g.reg(), 0))
	}
}

// atomicBlock emits either a plain AMO or an LR/SC retry loop (the
// canonical compiled atomic-compare idiom).
func (g *gen) atomicBlock() {
	b := g.base()
	if g.rng.Intn(2) == 0 {
		amos := []isa.Op{
			isa.OpAMOADDD, isa.OpAMOADDW, isa.OpAMOSWAPD, isa.OpAMOSWAPW,
			isa.OpAMOORD, isa.OpAMOORW, isa.OpAMOANDD, isa.OpAMOANDW,
			isa.OpAMOXORD, isa.OpAMOXORW, isa.OpAMOMIND, isa.OpAMOMINW,
			isa.OpAMOMAXD, isa.OpAMOMAXW, isa.OpAMOMINUD, isa.OpAMOMINUW,
			isa.OpAMOMAXUD, isa.OpAMOMAXUW,
		}
		g.emit(isa.EncAMO(amos[g.rng.Intn(len(amos))], g.reg(), b, g.reg(), g.rng.Intn(2) == 0, false))
		return
	}
	// LR/SC retry loop (word or double):
	//   lr t0, (b); add t1, t0, r; sc t2, t1, (b); bne t2, x0, -12
	lr, sc := isa.OpLRD, isa.OpSCD
	if g.rng.Intn(2) == 0 {
		lr, sc = isa.OpLRW, isa.OpSCW
	}
	g.emit(isa.EncAMO(lr, isa.T0, b, 0, false, false))
	g.emit(isa.Enc(isa.OpADD, isa.T1, isa.T0, g.reg(), 0))
	g.emit(isa.EncAMO(sc, isa.T2, b, isa.T1, false, true))
	g.emit(isa.Enc(isa.OpBNE, 0, isa.T2, 0, -12))
}

// csrBlock emits CSR access idioms (kernel code reads counters and
// scratch registers).
func (g *gen) csrBlock() {
	csr := isa.KnownCSRs[g.rng.Intn(len(isa.KnownCSRs))]
	writable := []uint16{isa.CSRMScratch, isa.CSRMEPC, isa.CSRMTVal, isa.CSRMCause}
	w := writable[g.rng.Intn(len(writable))]
	switch g.rng.Intn(6) {
	case 0:
		g.emit(isa.EncCSR(isa.OpCSRRS, g.reg(), 0, csr)) // csrr
	case 1:
		g.emit(isa.EncCSR(isa.OpCSRRW, 0, g.reg(), w))
	case 2:
		g.emit(isa.EncCSR(isa.OpCSRRSI, g.reg(), isa.Reg(g.rng.Intn(16)), w))
	case 3:
		g.emit(isa.EncCSR(isa.OpCSRRCI, g.reg(), isa.Reg(g.rng.Intn(16)), w))
	case 4:
		g.emit(isa.EncCSR(isa.OpCSRRC, g.reg(), g.reg(), w))
	default:
		g.emit(isa.EncCSR(isa.OpCSRRWI, 0, isa.Reg(g.rng.Intn(32)), w))
	}
}

// luiBlock emits address/constant materialisation.
func (g *gen) luiBlock() {
	r := g.reg()
	g.emit(isa.Enc(isa.OpLUI, r, 0, 0, int64(int32(uint32(g.rng.Intn(64))<<12))))
	g.emit(isa.Enc(isa.OpADDI, r, r, 0, g.imm()))
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Enc(isa.OpAUIPC, g.reg(), 0, 0, 0))
	}
}

// localCall emits a call to a local leaf with a return — exercising
// the RAS and call/return entanglement.
//
//	[0] jal ra, +16   ; call leaf
//	[1] jal x0, +20   ; after return, jump past leaf
//	[2] nop [3] nop
//	[4] leaf: addi a0, a0, 1
//	[5] jalr x0, 0(ra)
//	[6] ...continue
func (g *gen) localCall() {
	g.emit(
		isa.Enc(isa.OpJAL, isa.RA, 0, 0, 16),
		isa.Enc(isa.OpJAL, 0, 0, 0, 20),
		isa.NOP,
		isa.NOP,
		isa.Enc(isa.OpADDI, isa.A0, isa.A0, 0, 1),
		isa.Enc(isa.OpJALR, 0, isa.RA, 0, 0),
	)
}

// fenceBlock emits memory-ordering instructions; rarely, the
// self-modify + FENCE.I idiom (JIT-style code patching).
func (g *gen) fenceBlock() {
	if g.rng.Intn(4) != 0 {
		g.emit(isa.Encode(isa.Inst{Op: isa.OpFENCE, Imm: 0xFF}))
		return
	}
	// JIT-style code patching: copy this block's own first word over a
	// NOP victim, then FENCE.I (usually; its occasional absence is what
	// exposes Bug1).
	withFenceI := g.rng.Intn(4) != 0
	victimOff := int64(12)
	if withFenceI {
		victimOff = 16
	}
	g.emit(isa.Enc(isa.OpAUIPC, isa.T0, 0, 0, 0)) // t0 = pc
	g.emit(isa.Enc(isa.OpLW, isa.T1, isa.T0, 0, 0))
	g.emit(isa.Enc(isa.OpSW, 0, isa.T0, isa.T1, victimOff))
	if withFenceI {
		g.emit(isa.Encode(isa.Inst{Op: isa.OpFENCEI}))
	}
	g.emit(isa.NOP) // patch victim
}

// privBlock emits the privilege-drop idiom (kernel return-to-user):
// point mepc past the mret, clear mstatus.MPP, and mret into U-mode,
// followed by user code that eventually traps back via ecall.
//
//	auipc t0, 0; addi t0, t0, 20; csrw mepc, t0
//	csrrwi x0, mstatus, 0; mret
//	(U-mode) addi a1, a1, 1 … [ecall]
func (g *gen) privBlock() {
	g.emit(
		isa.Enc(isa.OpAUIPC, isa.T0, 0, 0, 0),
		isa.Enc(isa.OpADDI, isa.T0, isa.T0, 0, 20),
		isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMEPC),
		isa.EncCSR(isa.OpCSRRWI, 0, 0, isa.CSRMStatus),
		isa.Encode(isa.Inst{Op: isa.OpMRET}),
	)
	// Diverse user-mode code: U-mode behaviour coverage is exactly
	// what privilege-transition conditions measure.
	uOps := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpAND, isa.OpOR,
		isa.OpSLT, isa.OpSLL, isa.OpSRA, isa.OpADDW, isa.OpMUL, isa.OpDIV,
		isa.OpREM, isa.OpMULW, isa.OpSLTU, isa.OpSRL}
	n := 2 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		switch g.rng.Intn(4) {
		case 0:
			g.emit(isa.Enc(isa.OpADDI, g.reg(), g.reg(), 0, g.imm()))
		case 1:
			g.emit(isa.Enc(isa.OpLD, g.reg(), g.base(), 0, g.memOff()))
		case 2:
			g.emit(isa.Enc(isa.OpSW, 0, g.base(), g.reg(), g.memOff()))
		default:
			g.emit(isa.Enc(uOps[g.rng.Intn(len(uOps))], g.reg(), g.reg(), g.reg(), 0))
		}
	}
	if g.rng.Intn(2) == 0 {
		g.emit(isa.Encode(isa.Inst{Op: isa.OpECALL}))
	}
}

// sysBlock emits environment interaction (rare in functions).
func (g *gen) sysBlock() {
	switch g.rng.Intn(3) {
	case 0:
		g.emit(isa.Encode(isa.Inst{Op: isa.OpECALL}))
	case 1:
		g.emit(isa.Encode(isa.Inst{Op: isa.OpWFI}))
	default:
		g.emit(isa.Encode(isa.Inst{Op: isa.OpEBREAK}))
	}
}

// function assembles one function: prologue, randomized body blocks,
// epilogue with return.
func (g *gen) function(minLen, maxLen int) []uint32 {
	g.code = g.code[:0]
	frame := int64(16 + 16*g.rng.Intn(4))

	// Prologue.
	g.emit(isa.Enc(isa.OpADDI, isa.SP, isa.SP, 0, -frame))
	g.emit(isa.Enc(isa.OpSD, 0, isa.SP, isa.RA, frame-8))
	g.emit(isa.Enc(isa.OpSD, 0, isa.SP, isa.S0, frame-16))

	target := minLen + g.rng.Intn(maxLen-minLen+1)
	for len(g.code) < target {
		switch g.rng.Intn(21) {
		case 0, 1, 2, 3, 4:
			g.arithChain()
		case 5, 6, 7:
			g.loadCompute()
		case 8, 9:
			g.countedLoop()
		case 10, 11:
			g.guardedBlock()
		case 12, 13:
			g.mulDivBlock()
		case 14:
			g.atomicBlock()
		case 15:
			g.csrBlock()
		case 16:
			g.luiBlock()
		case 17:
			g.localCall()
		case 18:
			g.fenceBlock()
		case 19:
			g.privBlock()
		default:
			if g.rng.Intn(4) == 0 {
				g.sysBlock()
			} else {
				g.shiftImm()
			}
		}
	}

	// Epilogue.
	g.emit(isa.Enc(isa.OpLD, isa.RA, isa.SP, 0, frame-8))
	g.emit(isa.Enc(isa.OpLD, isa.S0, isa.SP, 0, frame-16))
	g.emit(isa.Enc(isa.OpADDI, isa.SP, isa.SP, 0, frame))
	g.emit(isa.Enc(isa.OpJALR, 0, isa.RA, 0, 0)) // ret

	out := make([]uint32, len(g.code))
	copy(out, g.code)
	return out
}

// Generate produces the corpus.
func Generate(cfg Config) *Corpus {
	if cfg.Functions <= 0 {
		cfg = DefaultConfig()
	}
	g := &gen{rng: rand.New(rand.NewSource(cfg.Seed))}
	c := &Corpus{Functions: make([][]uint32, 0, cfg.Functions)}
	for i := 0; i < cfg.Functions; i++ {
		c.Functions = append(c.Functions, g.function(cfg.MinLen, cfg.MaxLen))
	}
	return c
}

// Sample returns n functions drawn with replacement.
func (c *Corpus) Sample(rng *rand.Rand, n int) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		out[i] = c.Functions[rng.Intn(len(c.Functions))]
	}
	return out
}

// Prompt cuts the paper's PPO prompt from a function: its first 2–5
// instructions.
func Prompt(rng *rand.Rand, fn []uint32) []uint32 {
	n := 2 + rng.Intn(4)
	if n > len(fn) {
		n = len(fn)
	}
	return fn[:n]
}

// Window cuts a random 3–8 instruction window from anywhere in the
// function — the fuzz-time prompt distribution, which exposes the
// model to every idiom (atomics, CSR access, privilege drops), not
// just prologues.
func Window(rng *rand.Rand, fn []uint32) []uint32 {
	n := 3 + rng.Intn(6)
	if n >= len(fn) {
		return fn
	}
	start := rng.Intn(len(fn) - n)
	return fn[start : start+n]
}
