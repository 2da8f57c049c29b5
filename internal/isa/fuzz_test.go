package isa

import "testing"

// FuzzDecodeEncodeRoundTrip is the native-fuzzing form of the
// decode→encode→decode stability property: for an arbitrary 32-bit
// word, Decode must never panic; if the word decodes as valid, Encode
// must accept the decoded instruction without panicking and re-decode
// to the identical architectural fields. (Encode(Decode(w)) == w
// additionally holds for every format except FENCE, whose
// ignored-but-legal rd/rs1 fields the re-encoder zeroes — covered by
// TestDecodeEncodeRoundtrip; the field-level property here holds for
// all formats.)
func FuzzDecodeEncodeRoundTrip(f *testing.F) {
	// Seed corpus: one representative of every format plus the edge
	// encodings (all-zeros, all-ones, compressed space, NOP).
	seeds := []uint32{
		0x00000000,
		0xFFFFFFFF,
		0x00000001, // compressed/reserved space
		NOP,
		Enc(OpADD, 1, 2, 3, 0),
		Enc(OpADDI, 5, 6, 0, -2048),
		Enc(OpSLLI, 7, 8, 0, 63),
		Enc(OpSRAIW, 9, 10, 0, 31),
		Enc(OpSD, 0, 11, 12, 2047),
		Enc(OpBEQ, 0, 1, 2, -4096),
		Enc(OpLUI, 3, 0, 0, -1<<31),
		Enc(OpJAL, 1, 0, 0, 1<<19-2),
		EncCSR(OpCSRRW, 1, 2, 0x300),
		EncCSR(OpCSRRSI, 4, 31, 0xC00),
		EncAMO(OpLRW, 1, 2, 0, true, false),
		EncAMO(OpAMOMAXUD, 3, 4, 5, true, true),
		Enc(OpFENCE, 0, 0, 0, 0xFF),
		Enc(OpECALL, 0, 0, 0, 0),
	}
	for _, w := range seeds {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, raw uint32) {
		d1 := Decode(raw) // must never panic on any word
		if s := Disassemble(raw); s == "" {
			t.Errorf("Disassemble(%#08x) returned empty string", raw)
		}
		if !d1.Valid() {
			return
		}
		w2 := Encode(d1) // must never panic on a decoded instruction
		d2 := Decode(w2)
		d1.Raw, d2.Raw = 0, 0
		if d1 != d2 {
			t.Errorf("decode(%#08x)→encode→decode unstable:\nfirst  %+v\nsecond %+v", raw, d1, d2)
		}
	})
}
