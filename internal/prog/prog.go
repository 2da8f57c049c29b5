// Package prog builds runnable test images from raw instruction
// sequences. Every fuzz input (a list of 32-bit instruction words) is
// wrapped in the same harness the paper's Chipyard test arena provides:
// a reset stub that installs a trap handler and gives every register a
// deterministic, "interesting" value, the generated body, and an
// epilogue that ends the test via a tohost store.
//
// The stub and the handler are the same bytes in every image: they are
// assembled once and every image's first two segments share them
// read-only; Build encodes the body and the epilogue. Image.Body marks
// where the shared part ends, for simulators that checkpoint there.
//
//chatfuzz:deterministic package
package prog

import (
	"encoding/binary"
	"fmt"
	"sync"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
)

// Program is one fuzz input: the body instruction words placed between
// harness prologue and epilogue.
type Program struct {
	Body []uint32
}

// Layout records where the harness placed each piece.
type Layout struct {
	InitBase    uint64
	HandlerBase uint64
	BodyBase    uint64
	Epilogue    uint64
}

// Harness layout constants (byte offsets from mem.TextBase).
const (
	handlerOff = 0x400
	bodyOff    = 0x800
)

// emitLI materialises a 64-bit constant into rd using an
// ADDI/SLLI chain (the portable subset of the assembler's li
// expansion; correct for every uint64).
func emitLI(rd isa.Reg, v uint64) []uint32 {
	lo12 := int64(v<<52) >> 52 // sign-extended low 12 bits
	hi := (v - uint64(lo12)) >> 12
	if hi == 0 {
		return []uint32{isa.Enc(isa.OpADDI, rd, 0, 0, lo12)}
	}
	// hi is v>>12 with exact arithmetic; recurse on it shifted down.
	seq := emitLI(rd, hi)
	seq = append(seq, isa.Enc(isa.OpSLLI, rd, rd, 0, 12))
	if lo12 != 0 {
		seq = append(seq, isa.Enc(isa.OpADDI, rd, rd, 0, lo12))
	}
	return seq
}

// emitLA materialises an absolute address pc-relatively via
// AUIPC+ADDI (medany-style), valid for any target within ±2 GiB.
func emitLA(rd isa.Reg, pc, target uint64) []uint32 {
	off := int64(target - pc)
	hi := (off + 0x800) >> 12
	lo := off - hi<<12
	return []uint32{
		isa.Enc(isa.OpAUIPC, rd, 0, 0, hi<<12),
		isa.Enc(isa.OpADDI, rd, rd, 0, lo),
	}
}

// InitialRegs maps each register to its deterministic reset value.
// The mix is chosen to make short generated bodies interesting: valid
// data pointers, a misaligned pointer, an unmapped pointer, arithmetic
// corner values, and code pointers for wild control flow.
func InitialRegs(layout Layout) [32]uint64 {
	var v [32]uint64
	v[isa.RA] = layout.BodyBase        // jalr ra re-enters the body
	v[isa.SP] = mem.DataBase + 0x10000 // stack pointer
	v[isa.GP] = mem.DataBase + 0x800   // global pointer (±2 KiB stays mapped)
	v[isa.TP] = 0x0010_0000            // unmapped: loads via tp fault
	v[isa.T0] = 1
	v[isa.T1] = 2
	v[isa.T2] = 4
	v[isa.S0] = mem.DataBase + 0x2000
	v[isa.S1] = 0x7FFF_FFFF
	v[isa.A0] = mem.DataBase
	v[isa.A1] = mem.DataBase + 8
	v[isa.A2] = mem.DataBase + 0x100
	v[isa.A3] = ^uint64(0) // -1
	v[isa.A4] = 1 << 63    // INT64_MIN (div overflow corner)
	v[isa.A5] = 5
	v[isa.A6] = 0x55AA
	v[isa.A7] = mem.DataBase + 0x3000
	v[isa.S2] = mem.DataBase + 0x4000
	v[isa.S3] = 3
	v[isa.S4] = 0x100
	v[isa.S5] = mem.DataBase + 1 // misaligned pointer
	v[isa.S6] = mem.DataBase + 2
	v[isa.S7] = mem.DataBase + 4
	v[isa.S8] = mem.TextBase // stores via s8 self-modify code
	v[isa.S9] = layout.BodyBase
	v[isa.S10] = 0x1234_5678_9ABC_DEF0
	v[isa.S11] = mem.DataBase + 0x7F8
	v[isa.T3] = 8
	v[isa.T4] = 16
	v[isa.T5] = 0xFF
	v[isa.T6] = 0 // clobbered by the trap handler anyway
	return v
}

// Build assembles the program into a loadable image:
//
//	TextBase+0x000: init (mtvec setup, register init, jump to body)
//	TextBase+0x400: trap handler (skips the faulting instruction;
//	                fetch access faults bail out to the epilogue)
//	TextBase+0x800: body, immediately followed by the epilogue
//	                (store 1 to tohost; loop)
//
// Build fails when the body does not fit the harness text region
// (len(Body) > MaxBodyInstructions): loading such an image would place
// the epilogue outside mapped memory. Fuzzers must not discard the
// error — an unbuildable program has to be scored as invalid, not run
// as an empty image that pollutes coverage and reward.
func Build(p Program) (mem.Image, Layout, error) {
	if len(p.Body) > MaxBodyInstructions {
		return mem.Image{}, Layout{}, fmt.Errorf(
			"prog: body of %d instructions exceeds the %d-instruction harness limit",
			len(p.Body), MaxBodyInstructions)
	}
	img, layout := build(p)
	return img, layout, nil
}

// MustBuild is Build for programs known to fit the harness (tests,
// examples, corpus-derived bodies); it panics on a build error.
func MustBuild(p Program) (mem.Image, Layout) {
	img, layout, err := Build(p)
	if err != nil {
		panic(err)
	}
	return img, layout
}

// The init and handler segments depend only on the (fixed) harness
// layout, not on the fuzzed body, so they are assembled — words and
// bytes — exactly once and shared read-only by every built image
// (mem.Segment.Data is never written): Build runs once per generated
// test and encodes only the body and epilogue.
var (
	harnessOnce sync.Once
	harness     [2]mem.Segment // init, handler
)

func harnessSections() [2]mem.Segment {
	harnessOnce.Do(func() {
		layout := Layout{
			InitBase:    mem.TextBase,
			HandlerBase: mem.TextBase + handlerOff,
			BodyBase:    mem.TextBase + bodyOff,
		}

		// --- Trap handler (riscv-tests style: any unexpected trap ends
		// the test, reporting ((cause+1)<<1)|1 through tohost; clobbers
		// t5/t6 only) ---
		// csrr t6, mcause; addi t6, t6, 1; slli t6, t6, 1; ori t6, t6, 1
		// la t5, tohost; sd t6, 0(t5); j .
		handler := []uint32{
			isa.EncCSR(isa.OpCSRRS, isa.T6, 0, isa.CSRMCause),
			isa.Enc(isa.OpADDI, isa.T6, isa.T6, 0, 1),
			isa.Enc(isa.OpSLLI, isa.T6, isa.T6, 0, 1),
			isa.Enc(isa.OpORI, isa.T6, isa.T6, 0, 1),
		}
		laPC := layout.HandlerBase + uint64(4*len(handler))
		handler = append(handler, emitLA(isa.T5, laPC, mem.Tohost)...)
		handler = append(handler,
			isa.Enc(isa.OpSD, 0, isa.T5, isa.T6, 0),
			isa.Enc(isa.OpJAL, 0, 0, 0, 0), // j . (in case tohost is ignored)
		)

		// --- Init ---
		var initCode []uint32
		emit := func(ws ...uint32) { initCode = append(initCode, ws...) }
		// mtvec <- handler
		emit(emitLA(isa.T0, layout.InitBase+uint64(4*len(initCode)), layout.HandlerBase)...)
		emit(isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMTVec))
		// Register init, x1..x31 (t0 last since it was the scratch).
		vals := InitialRegs(layout)
		for r := isa.Reg(1); r < 32; r++ {
			if r == isa.T0 {
				continue
			}
			emit(emitLI(r, vals[r])...)
		}
		emit(emitLI(isa.T0, vals[isa.T0])...)
		// Jump to body.
		jalPC := layout.InitBase + uint64(4*len(initCode))
		emit(isa.Enc(isa.OpJAL, 0, 0, 0, int64(layout.BodyBase-jalPC)))

		if len(initCode)*4 > handlerOff {
			panic("prog: init code overflows its slot")
		}
		var img mem.Image
		img.AddWords(layout.InitBase, initCode)
		img.AddWords(layout.HandlerBase, handler)
		harness = [2]mem.Segment(img.Segments)
	})
	return harness
}

func build(p Program) (mem.Image, Layout) {
	layout := Layout{
		InitBase:    mem.TextBase,
		HandlerBase: mem.TextBase + handlerOff,
		BodyBase:    mem.TextBase + bodyOff,
	}
	layout.Epilogue = layout.BodyBase + uint64(4*len(p.Body))

	// --- Body + epilogue (the only per-program section) ---
	la := emitLA(isa.T1, layout.Epilogue+4, mem.Tohost)
	text := make([]byte, 0, 4*(len(p.Body)+5))
	for _, w := range p.Body {
		text = binary.LittleEndian.AppendUint32(text, w)
	}
	for _, w := range [...]uint32{
		isa.Enc(isa.OpADDI, isa.T0, 0, 0, 1),
		la[0], la[1],
		isa.Enc(isa.OpSD, 0, isa.T1, isa.T0, 0),
		isa.Enc(isa.OpJAL, 0, 0, 0, 0), // j . (safety net)
	} {
		text = binary.LittleEndian.AppendUint32(text, w)
	}

	h := harnessSections()
	return mem.Image{
		Entry:    layout.InitBase,
		Body:     layout.BodyBase,
		Segments: []mem.Segment{h[0], h[1], {Base: layout.BodyBase, Data: text}},
	}, layout
}

// MaxBodyInstructions bounds body length so the epilogue stays inside
// the text region.
const MaxBodyInstructions = (mem.TextSize - bodyOff - 64) / 4

// TrapExit decodes a tohost exit value: the trap handler reports
// ((cause+1)<<1)|1, while a normal run reports 1.
func TrapExit(code uint64) (cause uint64, isTrap bool) {
	if code&1 == 1 && code > 1 {
		return code>>1 - 1, true
	}
	return 0, false
}

// InstructionBudget returns a step budget for simulating a body of n
// instructions: generous enough for loops, bounded so trap storms and
// infinite loops terminate. A run caught in an exact cycle (most trap
// storms) is completed by copy out to this budget, and reports exactly
// what stepping it out would (hart.Marks).
func InstructionBudget(n int) int { return 2000 + 40*n }
