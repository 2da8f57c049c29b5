// Package tok implements ChatFuzz's machine-language tokenizer. The
// paper tokenises raw machine code — its Fig. 1 shows the stream as
// 16-bit hex groups ("3a7f 0e19 5aa0 c401 …") — so a token here is one
// 16-bit parcel of an instruction word and every 32-bit instruction is
// a (low, high) parcel pair.
//
// This representation is what makes training step 2 meaningful: the
// model must learn to pair parcels into legal encodings, and the
// disassembler reward penalises illegal pairings.
//
//chatfuzz:deterministic package
package tok

import (
	"fmt"
	"sort"
)

// Special token ids.
const (
	BOS = 0 // beginning of function
	EOS = 1 // end of function
	PAD = 2 // batch padding
	UNK = 3 // out-of-vocabulary parcel
)

// NumSpecial is the number of reserved token ids.
const NumSpecial = 4

// Tokenizer maps 16-bit instruction parcels to token ids.
type Tokenizer struct {
	parcels []uint16       // token id - NumSpecial -> parcel
	index   map[uint16]int // parcel -> token id
}

// Train builds a vocabulary from the corpus, keeping the maxVocab most
// frequent parcels (0 keeps all).
func Train(functions [][]uint32, maxVocab int) *Tokenizer {
	freq := make(map[uint16]int)
	for _, fn := range functions {
		for _, w := range fn {
			freq[uint16(w)]++
			freq[uint16(w>>16)]++
		}
	}
	parcels := make([]uint16, 0, len(freq))
	for p := range freq {
		parcels = append(parcels, p)
	}
	sort.Slice(parcels, func(i, j int) bool {
		if freq[parcels[i]] != freq[parcels[j]] {
			return freq[parcels[i]] > freq[parcels[j]]
		}
		return parcels[i] < parcels[j]
	})
	if maxVocab > 0 && len(parcels) > maxVocab-NumSpecial {
		parcels = parcels[:maxVocab-NumSpecial]
	}
	t := &Tokenizer{parcels: parcels, index: make(map[uint16]int, len(parcels))}
	for i, p := range parcels {
		t.index[p] = NumSpecial + i
	}
	return t
}

// Vocab returns the total vocabulary size including special tokens.
func (t *Tokenizer) Vocab() int { return NumSpecial + len(t.parcels) }

// TokenOf returns the id of a parcel (UNK if out of vocabulary).
func (t *Tokenizer) TokenOf(parcel uint16) int {
	if id, ok := t.index[parcel]; ok {
		return id
	}
	return UNK
}

// ParcelOf returns the parcel of a token id; ok=false for special
// tokens.
func (t *Tokenizer) ParcelOf(id int) (uint16, bool) {
	if id < NumSpecial || id-NumSpecial >= len(t.parcels) {
		return 0, false
	}
	return t.parcels[id-NumSpecial], true
}

// Encode converts instruction words to a token sequence:
// BOS p0.lo p0.hi p1.lo p1.hi … EOS.
func (t *Tokenizer) Encode(words []uint32) []int {
	out := make([]int, 0, 2*len(words)+2)
	out = append(out, BOS)
	out = append(out, t.EncodeBody(words)...)
	out = append(out, EOS)
	return out
}

// EncodeBody converts instruction words to parcel tokens without
// BOS/EOS framing (prompt construction).
func (t *Tokenizer) EncodeBody(words []uint32) []int {
	out := make([]int, 0, 2*len(words))
	for _, w := range words {
		out = append(out, t.TokenOf(uint16(w)), t.TokenOf(uint16(w>>16)))
	}
	return out
}

// Decode reassembles instruction words from a token stream: special
// tokens are skipped, consecutive parcels are paired (low, high), and
// a trailing unpaired parcel is dropped. UNK decodes to parcel 0x0000,
// which yields an invalid instruction — exactly the penalty signal the
// disassembler reward needs.
func (t *Tokenizer) Decode(tokens []int) []uint32 {
	var parcels []uint16
	for _, id := range tokens {
		if id == UNK {
			parcels = append(parcels, 0)
			continue
		}
		if p, ok := t.ParcelOf(id); ok {
			parcels = append(parcels, p)
		}
	}
	words := make([]uint32, 0, len(parcels)/2)
	for i := 0; i+1 < len(parcels); i += 2 {
		words = append(words, uint32(parcels[i])|uint32(parcels[i+1])<<16)
	}
	return words
}

// String renders a token for debugging.
func (t *Tokenizer) String(id int) string {
	switch id {
	case BOS:
		return "<bos>"
	case EOS:
		return "<eos>"
	case PAD:
		return "<pad>"
	case UNK:
		return "<unk>"
	}
	if p, ok := t.ParcelOf(id); ok {
		return fmt.Sprintf("%04x", p)
	}
	return fmt.Sprintf("<bad:%d>", id)
}
