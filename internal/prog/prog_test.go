package prog

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"chatfuzz/internal/isa"
	"chatfuzz/internal/mem"
)

func TestBuildLayout(t *testing.T) {
	img, layout := MustBuild(Program{Body: []uint32{isa.NOP, isa.NOP}})
	if img.Entry != layout.InitBase || layout.InitBase != mem.TextBase {
		t.Errorf("entry %#x, init %#x", img.Entry, layout.InitBase)
	}
	if layout.HandlerBase <= layout.InitBase || layout.BodyBase <= layout.HandlerBase {
		t.Error("layout sections out of order")
	}
	if layout.Epilogue != layout.BodyBase+8 {
		t.Errorf("epilogue %#x, want body+8", layout.Epilogue)
	}
	if len(img.Segments) != 3 {
		t.Errorf("segments = %d, want 3", len(img.Segments))
	}
}

// TestHarnessInstructionsAllValid: every word the harness emits must
// decode (the init/handler/epilogue run on both simulators).
func TestHarnessInstructionsAllValid(t *testing.T) {
	img, _ := MustBuild(Program{Body: []uint32{isa.NOP}})
	for _, seg := range img.Segments {
		for i := 0; i+4 <= len(seg.Data); i += 4 {
			w := uint32(seg.Data[i]) | uint32(seg.Data[i+1])<<8 |
				uint32(seg.Data[i+2])<<16 | uint32(seg.Data[i+3])<<24
			if w == isa.NOP {
				continue
			}
			if !isa.Decode(w).Valid() {
				t.Fatalf("harness word %#08x at %#x is invalid",
					w, seg.Base+uint64(i))
			}
		}
	}
}

// TestEmitLIProperty: the li expansion must materialise any constant.
func TestEmitLIProperty(t *testing.T) {
	f := func(v uint64) bool {
		seq := emitLI(isa.A0, v)
		// Interpret the chain with simple ALU semantics.
		var reg uint64
		for _, w := range seq {
			inst := isa.Decode(w)
			switch inst.Op {
			case isa.OpADDI:
				base := uint64(0)
				if inst.Rs1 == isa.A0 {
					base = reg
				}
				reg = base + uint64(inst.Imm)
			case isa.OpSLLI:
				reg = reg << uint(inst.Imm)
			default:
				return false
			}
		}
		return reg == v
	}
	cfg := &quick.Config{MaxCount: 5000, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInitialRegsRoles(t *testing.T) {
	_, layout := MustBuild(Program{})
	regs := InitialRegs(layout)
	if regs[0] != 0 {
		t.Error("x0 must be zero")
	}
	if regs[isa.SP]%8 != 0 || regs[isa.SP] < mem.DataBase {
		t.Error("sp must be an aligned data pointer")
	}
	if regs[isa.S5]%2 == 0 {
		t.Error("s5 must be a misaligned pointer")
	}
	m := mem.Platform()
	if m.Mapped(regs[isa.TP], 8) {
		t.Error("tp must be an unmapped pointer")
	}
	if regs[isa.RA] != layout.BodyBase {
		t.Error("ra must point at the body")
	}
}

func TestTrapExitEncoding(t *testing.T) {
	if _, isTrap := TrapExit(1); isTrap {
		t.Error("normal exit code 1 must not classify as trap")
	}
	cause, isTrap := TrapExit((uint64(5+1) << 1) | 1)
	if !isTrap || cause != 5 {
		t.Errorf("TrapExit = (%d, %v), want (5, true)", cause, isTrap)
	}
}

func TestInstructionBudgetScales(t *testing.T) {
	if InstructionBudget(10) >= InstructionBudget(1000) {
		t.Error("budget must grow with body size")
	}
	if InstructionBudget(0) < 1000 {
		t.Error("budget must cover the harness itself")
	}
}

func TestBuildRejectsNothing(t *testing.T) {
	// Bodies up to the documented max must build without panicking.
	body := make([]uint32, 1024)
	for i := range body {
		body[i] = isa.NOP
	}
	img, layout := MustBuild(Program{Body: body})
	if layout.Epilogue != layout.BodyBase+uint64(4*len(body)) {
		t.Error("epilogue misplaced")
	}
	m := mem.Platform()
	m.Load(img) // must not panic
}

// TestBuildRejectsOversizedBody: a body past the harness limit must
// fail to build (loading it would place the epilogue outside mapped
// text), never be truncated or run as an empty image.
func TestBuildRejectsOversizedBody(t *testing.T) {
	if _, _, err := Build(Program{Body: make([]uint32, MaxBodyInstructions)}); err != nil {
		t.Errorf("body at the limit failed to build: %v", err)
	}
	if _, _, err := Build(Program{Body: make([]uint32, MaxBodyInstructions+1)}); err == nil {
		t.Error("oversized body built without error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on an oversized body")
		}
	}()
	MustBuild(Program{Body: make([]uint32, MaxBodyInstructions+1)})
}

// referenceBuild is the assembly Build did before the harness segments
// were shared: every section encoded from scratch, word by word, into
// bytes of its own.
func referenceBuild(p Program) mem.Image {
	layout := Layout{InitBase: mem.TextBase, HandlerBase: mem.TextBase + handlerOff, BodyBase: mem.TextBase + bodyOff}
	layout.Epilogue = layout.BodyBase + uint64(4*len(p.Body))

	handler := []uint32{
		isa.EncCSR(isa.OpCSRRS, isa.T6, 0, isa.CSRMCause),
		isa.Enc(isa.OpADDI, isa.T6, isa.T6, 0, 1),
		isa.Enc(isa.OpSLLI, isa.T6, isa.T6, 0, 1),
		isa.Enc(isa.OpORI, isa.T6, isa.T6, 0, 1),
	}
	handler = append(handler, emitLA(isa.T5, layout.HandlerBase+uint64(4*len(handler)), mem.Tohost)...)
	handler = append(handler, isa.Enc(isa.OpSD, 0, isa.T5, isa.T6, 0), isa.Enc(isa.OpJAL, 0, 0, 0, 0))

	initCode := emitLA(isa.T0, layout.InitBase, layout.HandlerBase)
	initCode = append(initCode, isa.EncCSR(isa.OpCSRRW, 0, isa.T0, isa.CSRMTVec))
	vals := InitialRegs(layout)
	for r := isa.Reg(1); r < 32; r++ {
		if r != isa.T0 {
			initCode = append(initCode, emitLI(r, vals[r])...)
		}
	}
	initCode = append(initCode, emitLI(isa.T0, vals[isa.T0])...)
	jalPC := layout.InitBase + uint64(4*len(initCode))
	initCode = append(initCode, isa.Enc(isa.OpJAL, 0, 0, 0, int64(layout.BodyBase-jalPC)))

	text := append([]uint32{}, p.Body...)
	text = append(text, isa.Enc(isa.OpADDI, isa.T0, 0, 0, 1))
	text = append(text, emitLA(isa.T1, layout.Epilogue+4, mem.Tohost)...)
	text = append(text, isa.Enc(isa.OpSD, 0, isa.T1, isa.T0, 0), isa.Enc(isa.OpJAL, 0, 0, 0, 0))

	img := mem.Image{Entry: layout.InitBase}
	img.AddWords(layout.InitBase, initCode)
	img.AddWords(layout.HandlerBase, handler)
	img.AddWords(layout.BodyBase, text)
	return img
}

// TestBuildSharesHarnessBytes: every image's init and handler segments
// are the one read-only array assembled at first use, an image's bytes
// are what a from-scratch assembly produces, and loading an image
// leaves the shared bytes alone.
func TestBuildSharesHarnessBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var first mem.Image
	for i := 0; i < 20; i++ {
		body := make([]uint32, rng.Intn(40))
		for j := range body {
			body[j] = rng.Uint32()
		}
		img, layout := MustBuild(Program{Body: body})
		want := referenceBuild(Program{Body: body})
		if img.Entry != want.Entry || img.Body != layout.BodyBase || len(img.Segments) != len(want.Segments) {
			t.Fatalf("image %d: entry %#x body %#x, %d segments", i, img.Entry, img.Body, len(img.Segments))
		}
		for s, seg := range img.Segments {
			if seg.Base != want.Segments[s].Base || !bytes.Equal(seg.Data, want.Segments[s].Data) {
				t.Fatalf("image %d: segment %d differs from the from-scratch assembly", i, s)
			}
		}
		if i == 0 {
			first = img
		}
		for s := 0; s < 2; s++ {
			if &img.Segments[s].Data[0] != &first.Segments[s].Data[0] {
				t.Errorf("image %d: harness segment %d has bytes of its own", i, s)
			}
		}
		if &img.Segments[2].Data[0] == &first.Segments[2].Data[0] && i > 0 {
			t.Errorf("image %d shares its body segment", i)
		}
		m := mem.Platform()
		m.Load(img)
		m.WriteUint(mem.TextBase, ^uint64(0), 8) // a self-modifying store lands in the memory, not the image
		for s := 0; s < 2; s++ {
			if !bytes.Equal(img.Segments[s].Data, want.Segments[s].Data) {
				t.Fatalf("image %d: loading and running wrote harness segment %d", i, s)
			}
		}
	}
}

// FuzzBuild builds arbitrary body words: raw read as little-endian
// words, or, when long is set, cycled into a body of a length around
// MaxBodyInstructions that over picks. Build fails if and only if the
// body is longer than MaxBodyInstructions; otherwise the segment at
// BodyBase starts with the words in order and the epilogue follows them
// at BodyBase+4·len.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{}, false, uint8(0))
	f.Add(binary.LittleEndian.AppendUint32(nil, isa.NOP), false, uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x6f, 0, 0, 0, 1}, false, uint8(0))
	for over := uint8(0); over < 5; over++ {
		f.Add([]byte{0x13, 0, 0, 0, 0xef, 0xbe, 0xad, 0xde}, true, over)
	}
	f.Fuzz(func(t *testing.T, raw []byte, long bool, over uint8) {
		n := len(raw) / 4
		if long {
			n = MaxBodyInstructions - 2 + int(over%5)
		}
		body := make([]uint32, n)
		if words := len(raw) / 4; words > 0 {
			for i := range body {
				body[i] = binary.LittleEndian.Uint32(raw[4*(i%words):])
			}
		}
		img, layout, err := Build(Program{Body: body})
		if (err != nil) != (n > MaxBodyInstructions) {
			t.Fatalf("body of %d words (limit %d): error %v", n, MaxBodyInstructions, err)
		}
		if err != nil {
			return
		}
		if layout.Epilogue != layout.BodyBase+uint64(4*n) {
			t.Fatalf("body of %d words: epilogue at %#x, body at %#x", n, layout.Epilogue, layout.BodyBase)
		}
		if img.Body != layout.BodyBase {
			t.Fatalf("image body at %#x, layout at %#x", img.Body, layout.BodyBase)
		}
		for _, s := range img.Segments {
			if s.Base != layout.BodyBase {
				continue
			}
			if len(s.Data) < 4*n {
				t.Fatalf("body segment of %d bytes for %d words", len(s.Data), n)
			}
			for i, w := range body {
				if got := binary.LittleEndian.Uint32(s.Data[4*i:]); got != w {
					t.Fatalf("body word %d = %#x, want %#x", i, got, w)
				}
			}
			return
		}
		t.Fatalf("no segment at BodyBase %#x", layout.BodyBase)
	})
}
