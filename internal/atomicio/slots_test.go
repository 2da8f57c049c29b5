package atomicio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genPayload returns a payload for generation g of n bytes, distinct per g.
func genPayload(g, n int) []byte {
	b := []byte(strings.Repeat(fmt.Sprintf("gen-%d;", g), n/6+1))
	return b[:n]
}

func commit(t *testing.T, s *Slots, payload []byte) {
	t.Helper()
	if err := s.Commit(payload); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func wantRead(t *testing.T, path string, want []byte, wantGen uint64) {
	t.Helper()
	got, gen, err := ReadSlots(path)
	if err != nil {
		t.Fatalf("ReadSlots: %v", err)
	}
	if gen != wantGen || !bytes.Equal(got, want) {
		t.Fatalf("ReadSlots = generation %d (%d bytes), want %d (%d bytes)", gen, len(got), wantGen, len(want))
	}
}

// wantSlot checks that slot i alone holds generation gen with payload.
func wantSlot(t *testing.T, path string, i int, want []byte, gen uint64) {
	t.Helper()
	h, err := readSlotHead(SlotPath(path, i), i)
	if err != nil {
		t.Fatalf("slot %d: %v", i, err)
	}
	defer h.close()
	got, err := h.payload()
	if err != nil {
		t.Fatalf("slot %d: %v", i, err)
	}
	if h.gen != gen || !bytes.Equal(got, want) {
		t.Fatalf("slot %d holds generation %d (%d valid bytes), want %d (%d bytes)", i, h.gen, len(got), gen, len(want))
	}
}

func sameFile(t *testing.T, path string, before os.FileInfo) bool {
	t.Helper()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	return os.SameFile(before, after)
}

// TestSlotsCommitReadBack: a store with no file reads as absent; each
// commit reads back as the newest generation, alternating slots; a
// payload that fits its slot is written in place, one that outgrows it
// replaces the file once, half again larger; a reopened store continues
// the generations.
func TestSlotsCommitReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	if _, _, err := ReadSlots(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("ReadSlots of an empty store: %v, want ErrNotExist", err)
	}
	s, err := OpenSlots(path, 0)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	commit(t, s, genPayload(1, 1000))
	wantRead(t, path, genPayload(1, 1000), 1)
	if _, err := os.Stat(SlotPath(path, 0)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("generation 1 touched slot 0: %v", err)
	}
	commit(t, s, genPayload(2, 1000))
	wantRead(t, path, genPayload(2, 1000), 2)
	wantSlot(t, path, 1, genPayload(1, 1000), 1)

	st1, err := os.Stat(SlotPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st1.Size() < 1500 || st1.Size()%4096 != 0 {
		t.Fatalf("slot 1 created at %d bytes, want whole blocks at least 1.5x its 1028", st1.Size())
	}
	// Generation 3 fits slot 1: in place, same file.
	commit(t, s, genPayload(3, 1200))
	wantRead(t, path, genPayload(3, 1200), 3)
	if !sameFile(t, SlotPath(path, 1), st1) {
		t.Error("a payload that fits its slot replaced the file")
	}
	// Generation 5 outgrows it: a new file, half again larger.
	commit(t, s, genPayload(4, 1200))
	commit(t, s, genPayload(5, 5000))
	wantRead(t, path, genPayload(5, 5000), 5)
	st5, err := os.Stat(SlotPath(path, 1))
	if err != nil {
		t.Fatal(err)
	}
	if sameFile(t, SlotPath(path, 1), st1) || st5.Size() < 7500 {
		t.Errorf("slot 1 after outgrowing: %d bytes, same file %v", st5.Size(), os.SameFile(st1, st5))
	}
	// A shorter payload reads back as itself, not with the old tail.
	commit(t, s, genPayload(6, 10))
	commit(t, s, genPayload(7, 10))
	wantRead(t, path, genPayload(7, 10), 7)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	s, err = OpenSlots(path, 7)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	commit(t, s, genPayload(8, 2000))
	wantRead(t, path, genPayload(8, 2000), 8)
	wantSlot(t, path, 1, genPayload(7, 10), 7)
	if tmps := append(listTemps(t, SlotPath(path, 0)), listTemps(t, SlotPath(path, 1))...); len(tmps) != 0 {
		t.Errorf("staging files left behind: %v", tmps)
	}
}

// TestSlotsTrimKeepsNewest: a trimmed store is one slot file of header
// plus payload that reads back the same payload and generation, both
// on the store that trimmed and on one reopened after it; trimming
// again changes nothing, and later commits recreate the deleted slot
// and regrow the cut one.
func TestSlotsTrimKeepsNewest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	s, err := OpenSlots(path, 0)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	for g := 1; g <= 3; g++ {
		commit(t, s, genPayload(g, 3000))
	}
	newest := genPayload(3, 3000)
	for range 2 {
		if err := s.Trim(); err != nil {
			t.Fatalf("Trim: %v", err)
		}
		wantRead(t, path, newest, 3)
		if _, err := os.Stat(SlotPath(path, 0)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("the older slot survived the trim: %v", err)
		}
		if st, err := os.Stat(SlotPath(path, 1)); err != nil || st.Size() != int64(slotHeader+len(newest)) {
			t.Fatalf("the newest slot is %v (%v), want %d bytes", st, err, slotHeader+len(newest))
		}
	}
	commit(t, s, genPayload(4, 3000))
	wantSlot(t, path, 0, genPayload(4, 3000), 4)
	wantRead(t, path, genPayload(4, 3000), 4)

	_, gen, err := ReadSlots(path)
	if err != nil {
		t.Fatalf("ReadSlots: %v", err)
	}
	if err := s.Trim(); err != nil {
		t.Fatalf("Trim: %v", err)
	}
	r, err := OpenSlots(path, gen)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	defer r.Close()
	commit(t, r, genPayload(5, 5000))
	commit(t, r, genPayload(6, 5000))
	wantSlot(t, path, 1, genPayload(5, 5000), 5)
	wantRead(t, path, genPayload(6, 5000), 6)
}

// TestSlotsTrimKeepsBothWhenNewestIsTorn: a newest slot that no longer
// reads back whole is not trimmed to; both slot files stay, and the
// reader still finds the previous generation.
func TestSlotsTrimKeepsBothWhenNewestIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	s, err := OpenSlots(path, 0)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	commit(t, s, genPayload(1, 3000))
	commit(t, s, genPayload(2, 3000))
	newest := SlotPath(path, 0)
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[slotHeader+10] ^= 1
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Trim(); err == nil {
		t.Fatal("Trim cut the store to a torn generation")
	}
	if st, err := os.Stat(newest); err != nil || st.Size() != int64(len(b)) {
		t.Errorf("the torn slot was changed: %v, %v", st, err)
	}
	wantRead(t, path, genPayload(1, 3000), 1)
}

// TestOpenSlotsRemovesStagingFiles: a writer killed mid-growth leaves a
// slot's staging file; the next writer's open removes it, and nothing
// else.
func TestOpenSlotsRemovesStagingFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	debris := []string{SlotPath(path, 0) + ".tmp123", SlotPath(path, 1) + ".tmp456"}
	keep := filepath.Join(dir, "ckpt.tmp789") // another file's staging
	for _, name := range append(debris, keep) {
		if err := os.WriteFile(name, []byte("half"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenSlots(path, 0)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	defer s.Close()
	for _, name := range debris {
		if _, err := os.Stat(name); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s survived: %v", name, err)
		}
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("%s was removed: %v", keep, err)
	}
}

// faultFS injects a short WriteAt, a failed flush or a failed growth
// rename into a store, and counts the calls that reach it.
type faultFS struct {
	osFS
	short     int // > 0: a WriteAt of more bytes writes only this many
	flushErr  error
	renameErr error
	calls     int
}

type faultSlot struct {
	slotFile
	fs *faultFS
}

func (f *faultFS) open(path string) (slotFile, int64, error) {
	f.calls++
	sf, size, err := f.osFS.open(path)
	if err != nil {
		return nil, 0, err
	}
	return faultSlot{sf, f}, size, nil
}

func (f *faultFS) create(path string, write func(io.Writer) error) error {
	f.calls++
	if f.renameErr != nil {
		return writeFile(path, write, func(string, string) error { return f.renameErr })
	}
	return f.osFS.create(path, write)
}

func (s faultSlot) WriteAt(p []byte, off int64) (int, error) {
	s.fs.calls++
	if s.fs.short > 0 && len(p) > s.fs.short {
		return s.slotFile.WriteAt(p[:s.fs.short], off)
	}
	return s.slotFile.WriteAt(p, off)
}

func (s faultSlot) Flush() error {
	s.fs.calls++
	if s.fs.flushErr != nil {
		return s.fs.flushErr
	}
	return s.slotFile.Flush()
}

// TestSlotsFailedCommitKeepsPrevious: a commit whose write comes up
// short, whose flush fails or whose growth cannot be renamed returns
// the error; the other slot still holds the previous generation, and
// the store refuses every later commit without touching a file — a
// store that moved on to the other slot would overwrite the one
// generation known durable.
func TestSlotsFailedCommitKeepsPrevious(t *testing.T) {
	boom := errors.New("injected")
	for _, tc := range []struct {
		name string
		ffs  faultFS
		size int // of generation 3's payload
		// torn: the failed slot must not read back as generation 3.
		torn bool
	}{
		{"short write", faultFS{short: 100}, 1000, true},
		{"failed flush", faultFS{flushErr: boom}, 1000, false},
		{"failed growth rename", faultFS{renameErr: boom}, 50000, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt")
			s, err := OpenSlots(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			commit(t, s, genPayload(1, 1000))
			commit(t, s, genPayload(2, 1000))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			ffs := tc.ffs
			s, err = openSlots(path, 2, &ffs)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			err = s.Commit(genPayload(3, tc.size))
			if err == nil {
				t.Fatal("Commit with an injected fault succeeded")
			}
			if tc.ffs.short == 0 && !errors.Is(err, boom) {
				t.Errorf("Commit error %v does not wrap the fault", err)
			}
			wantSlot(t, path, 0, genPayload(2, 1000), 2)
			if tc.torn {
				wantRead(t, path, genPayload(2, 1000), 2)
			}
			calls := ffs.calls
			for k := 4; k <= 5; k++ {
				if err := s.Commit(genPayload(k, 1000)); err == nil {
					t.Fatalf("Commit of generation %d after a failed one succeeded", k)
				}
			}
			if ffs.calls != calls {
				t.Errorf("refused commits reached the file system %d times", ffs.calls-calls)
			}
			wantSlot(t, path, 0, genPayload(2, 1000), 2)
			if tmps := listTemps(t, SlotPath(path, 1)); len(tmps) != 0 {
				t.Errorf("staging files left behind: %v", tmps)
			}
		})
	}
}

// TestReadSlotsSkipsInvalidNewest: a newest slot cut short or with any
// header or payload byte flipped reads as the previous generation; both
// slots invalid is an error naming the store, not an absent store.
func TestReadSlotsSkipsInvalidNewest(t *testing.T) {
	const n = 600
	for _, tc := range []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"truncated to empty", func(b []byte) []byte { return nil }},
		{"truncated inside the header", func(b []byte) []byte { return b[:slotHeader-1] }},
		{"truncated inside the payload", func(b []byte) []byte { return b[:slotHeader+n-1] }},
		{"magic", flip(0)},
		{"version", flip(4)},
		{"generation", flip(9)},
		{"generation parity", flip(8)},
		{"length", flip(16)},
		{"length high byte", flip(23)},
		{"CRC", flip(25)},
		{"first payload byte", flip(slotHeader)},
		{"last payload byte", flip(slotHeader + n - 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ckpt")
			s, err := OpenSlots(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			for g := 1; g <= 3; g++ {
				commit(t, s, genPayload(g, n))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			newest := SlotPath(path, 1)
			b, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			wantRead(t, path, genPayload(2, n), 2)

			older := SlotPath(path, 0)
			b, err = os.ReadFile(older)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(older, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = ReadSlots(path)
			if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), path) {
				t.Errorf("both slots invalid: %v, want an error naming %s", err, path)
			}
		})
	}
}

func flip(i int) func([]byte) []byte {
	return func(b []byte) []byte {
		b[i] ^= 1
		return b
	}
}

// refSlot decodes one slot file on its own, by the format's definition:
// the reference FuzzReadSlots holds the reader to.
func refSlot(b []byte, i int) (payload []byte, gen uint64, ok bool) {
	if len(b) < 28 || string(b[:4]) != "CFSL" || binary.LittleEndian.Uint32(b[4:8]) != 1 {
		return nil, 0, false
	}
	gen = binary.LittleEndian.Uint64(b[8:16])
	n := binary.LittleEndian.Uint64(b[16:24])
	if gen == 0 || gen%2 != uint64(i) || n > uint64(len(b)-28) {
		return nil, 0, false
	}
	tab := crc32.MakeTable(crc32.Castagnoli)
	body := append(append([]byte{}, b[:24]...), b[28:28+n]...)
	if crc32.Checksum(body, tab) != binary.LittleEndian.Uint32(b[24:28]) {
		return nil, 0, false
	}
	return b[28 : 28+n], gen, true
}

// encodeSlot is one valid slot file: gen's header, payload, pad zeros.
func encodeSlot(gen uint64, payload []byte, pad int) []byte {
	var h [slotHeader]byte
	putSlotHeader(&h, gen, payload)
	return append(append(h[:], payload...), make([]byte, pad)...)
}

// FuzzReadSlots writes arbitrary bytes as the two slot files (present
// picks which exist) and holds ReadSlots to refSlot: no file is
// ErrNotExist, files with no valid slot an error, and otherwise the
// payload and generation of the newest valid slot. It never panics.
func FuzzReadSlots(f *testing.F) {
	f.Add(encodeSlot(2, []byte("two"), 0), encodeSlot(1, []byte("one"), 9), uint8(3))
	f.Add(encodeSlot(4, []byte("four"), 3), encodeSlot(3, []byte("three"), 0), uint8(3))
	f.Add(encodeSlot(2, []byte("two"), 0)[:30], encodeSlot(3, []byte("three"), 0), uint8(3))
	f.Add(encodeSlot(1, []byte("wrong slot"), 0), encodeSlot(2, []byte("wrong slot"), 0), uint8(3))
	f.Add(encodeSlot(6, nil, 0), []byte{}, uint8(1))
	f.Add([]byte("CFSL"), encodeSlot(5, []byte("five"), 4096), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	dir := f.TempDir()
	path := filepath.Join(dir, "ckpt")
	f.Fuzz(func(t *testing.T, a, b []byte, present uint8) {
		var want []byte
		var wantGen uint64
		exists := false
		for i, data := range [2][]byte{a, b} {
			name := SlotPath(path, i)
			if present&(1<<i) == 0 {
				if err := os.Remove(name); err != nil && !errors.Is(err, fs.ErrNotExist) {
					t.Fatal(err)
				}
				continue
			}
			exists = true
			if err := os.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if p, gen, ok := refSlot(data, i); ok && gen > wantGen {
				want, wantGen = p, gen
			}
		}
		got, gen, err := ReadSlots(path)
		switch {
		case !exists:
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("no slot file: %v, want ErrNotExist", err)
			}
		case wantGen == 0:
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("no valid slot: returned generation %d, %v", gen, err)
			}
		default:
			if err != nil || gen != wantGen || !bytes.Equal(got, want) {
				t.Fatalf("ReadSlots = generation %d %q, %v; want %d %q", gen, got, err, wantGen, want)
			}
		}
	})
}
