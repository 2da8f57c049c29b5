package atomicio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"strconv"
)

// A slot store keeps the newest durable generation of one payload in
// two files, path.0 and path.1. Generation g goes to slot g % 2, as a
// header followed by the payload, written in place over whatever the
// slot held and then flushed with fdatasync. Header layout,
// little-endian:
//
//	[4B magic "CFSL"][4B format version][8B generation]
//	[8B payload length][4B CRC-32C of the 24 bytes before it and the payload]
//
// The slot a commit overwrites never holds the newest durable
// generation: that one is in the other slot, untouched until a newer
// one is durable here. A crash mid-commit can therefore tear only the
// slot being written, and the reader, which takes the newest slot whose
// header and CRC check out, finds the previous generation in the other.
//
// A slot file is created, and grown when a payload outgrows it, only
// through WriteFile: staged, fsynced, renamed, directory fsynced, and
// sized to half again what it must hold, so a growing payload pays the
// rename O(log size) times. A slot file that exists has therefore held
// a complete generation, and an in-place overwrite rewrites blocks the
// file already owns: the flush is one data write, no journal commit.

const (
	slotMagic   = "CFSL"
	slotVersion = 1
	// slotHeader is the header's size: magic, version, generation,
	// length, CRC.
	slotHeader = 4 + 4 + 8 + 8 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SlotPath names slot i (0 or 1) of the store at path.
func SlotPath(path string, i int) string { return path + "." + strconv.Itoa(i) }

// slotFile is what a store writes an open slot through: a header and
// payload go out with WriteAt and are made durable with Flush.
// osSlot is the one implementation outside tests, which inject short
// writes and failed flushes through it.
type slotFile interface {
	io.WriterAt
	Flush() error
	Close() error
}

// slotFS is how a store reaches the file system: open returns an
// existing slot and its size, create atomically replaces a slot's whole
// file (WriteFile's contract). osFS is the one implementation outside
// tests, which inject a failed growth through create.
type slotFS interface {
	open(path string) (slotFile, int64, error)
	create(path string, write func(io.Writer) error) error
}

// osSlot is a slot file on disk; Flush is fdatasync where the platform
// has it (flush_linux.go) and Sync elsewhere.
type osSlot struct{ *os.File }

func (f osSlot) Flush() error { return flush(f.File) }

type osFS struct{}

func (osFS) open(path string) (slotFile, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("atomicio: stat %s: %w", path, err)
	}
	return osSlot{f}, st.Size(), nil
}

func (osFS) create(path string, write func(io.Writer) error) error {
	return writeFile(path, write, os.Rename)
}

// Slots is the writer of a slot store. Only one may be open on a path
// at a time, and nothing else may write the slot files meanwhile.
type Slots struct {
	path string
	fs   slotFS
	// gen is the newest durable generation: the next Commit writes
	// gen+1 to slot (gen+1) % 2.
	gen uint64
	// f holds each slot's file once opened, size its length; both are
	// zero until a write opens the file and again after a growth
	// replaces it.
	f    [2]slotFile
	size [2]int64
	hdr  [slotHeader]byte
	// err, once set, refuses every later Commit: after a failed write
	// or flush the slot's contents are unknown, and the only generation
	// known durable is in the other slot, which a retry must not reach.
	err error
}

// OpenSlots opens the store at path for writing after gen, the
// generation ReadSlots returned (0 for a store with no slot file), and
// deletes the staging files a writer killed mid-growth left beside the
// slots. Nothing is opened or written until the first Commit.
func OpenSlots(path string, gen uint64) (*Slots, error) {
	return openSlots(path, gen, osFS{})
}

func openSlots(path string, gen uint64, fsys slotFS) (*Slots, error) {
	for i := range 2 {
		if err := RemoveTemps(SlotPath(path, i)); err != nil {
			return nil, err
		}
	}
	return &Slots{path: path, fs: fsys, gen: gen}, nil
}

// Commit makes payload the store's newest generation: header and
// payload are written over the older slot in place and flushed, or, when
// they do not fit that slot's file, it is replaced through WriteFile.
// The generation is durable when Commit returns nil. On error the
// previous generation is still the newest readable one, and the store
// refuses every later Commit.
func (s *Slots) Commit(payload []byte) error {
	if s.err != nil {
		return s.err
	}
	gen := s.gen + 1
	i := int(gen % 2)
	putSlotHeader(&s.hdr, gen, payload)
	if err := s.write(i, payload); err != nil {
		s.err = fmt.Errorf("%w; %s refuses later commits", err, s.path)
		return s.err
	}
	s.gen = gen
	return nil
}

// write puts s.hdr and payload in slot i: in place when they fit the
// file, else through a new file half again their size, in whole 4 KiB
// blocks.
func (s *Slots) write(i int, payload []byte) error {
	path := SlotPath(s.path, i)
	if s.f[i] == nil {
		f, size, err := s.fs.open(path)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// No file yet: grow creates it.
		case err != nil:
			return fmt.Errorf("atomicio: %w", err)
		default:
			s.f[i], s.size[i] = f, size
		}
	}
	need := int64(slotHeader + len(payload))
	if need > s.size[i] {
		return s.grow(i, path, payload, (need+need/2+4095)&^4095)
	}
	f := s.f[i]
	if n, err := f.WriteAt(s.hdr[:], 0); err != nil || n < len(s.hdr) {
		return fmt.Errorf("atomicio: write %s: %w", path, shortWrite(err))
	}
	if n, err := f.WriteAt(payload, slotHeader); err != nil || n < len(payload) {
		return fmt.Errorf("atomicio: write %s: %w", path, shortWrite(err))
	}
	if err := f.Flush(); err != nil {
		return fmt.Errorf("atomicio: flush %s: %w", path, err)
	}
	return nil
}

// grow replaces slot i's file with one of size bytes holding s.hdr,
// payload and zeros. Written zeros, unlike a truncated hole, leave
// every block allocated, so later in-place writes change no metadata.
func (s *Slots) grow(i int, path string, payload []byte, size int64) error {
	if f := s.f[i]; f != nil {
		s.f[i], s.size[i] = nil, 0
		if err := f.Close(); err != nil {
			return fmt.Errorf("atomicio: close %s: %w", path, err)
		}
	}
	err := s.fs.create(path, func(w io.Writer) error {
		if _, err := w.Write(s.hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(payload); err != nil {
			return err
		}
		var zeros [4096]byte
		for pad := size - int64(slotHeader+len(payload)); pad > 0; pad -= int64(len(zeros)) {
			if _, err := w.Write(zeros[:min(pad, int64(len(zeros)))]); err != nil {
				return err
			}
		}
		return nil
	})
	// The next write to this slot opens the new file.
	return err
}

func shortWrite(err error) error {
	if err == nil {
		return io.ErrShortWrite
	}
	return err
}

// Close releases the slot files. Every committed generation was
// flushed by its Commit; Close adds no durability. Closing twice is
// harmless, and a later Commit reopens the slot it writes.
func (s *Slots) Close() error {
	var errs []error
	for i, f := range s.f {
		if f != nil {
			s.f[i], s.size[i] = nil, 0
			if err := f.Close(); err != nil {
				errs = append(errs, fmt.Errorf("atomicio: close %s: %w", SlotPath(s.path, i), err))
			}
		}
	}
	return errors.Join(errs...)
}

// Trim closes the store and leaves it holding only its newest
// generation, unpadded: once that generation reads back whole, it
// deletes the other slot's file, then cuts the newest slot's file to
// its header and payload. It is for a store that is done. A crash
// between the two steps, or during either, leaves a store ReadSlots
// reads; a later Commit recreates the deleted slot and regrows the cut
// one as it needs.
func (s *Slots) Trim() error {
	if err := s.Close(); err != nil {
		return err
	}
	if s.err != nil {
		return s.err
	}
	if s.gen == 0 {
		return nil
	}
	i := int(s.gen % 2)
	path := SlotPath(s.path, i)
	h, err := readSlotHead(path, i)
	if err != nil {
		return err
	}
	var payload []byte
	if h.gen == s.gen {
		payload, err = h.payload()
	}
	h.close()
	if err != nil {
		return err
	}
	if payload == nil {
		return fmt.Errorf("atomicio: %s does not hold generation %d whole; both slots kept", path, s.gen)
	}
	if err := os.Remove(SlotPath(s.path, 1-i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("atomicio: %w", err)
	}
	if err := os.Truncate(path, slotHeader+h.n); err != nil {
		return fmt.Errorf("atomicio: %w", err)
	}
	return nil
}

func putSlotHeader(h *[slotHeader]byte, gen uint64, payload []byte) {
	copy(h[0:4], slotMagic)
	binary.LittleEndian.PutUint32(h[4:8], slotVersion)
	binary.LittleEndian.PutUint64(h[8:16], gen)
	binary.LittleEndian.PutUint64(h[16:24], uint64(len(payload)))
	sum := crc32.Update(crc32.Update(0, castagnoli, h[:24]), castagnoli, payload)
	binary.LittleEndian.PutUint32(h[24:28], sum)
}

// ReadSlots returns the payload and generation of the store at path's
// newest slot whose header and CRC check out. An error that wraps
// fs.ErrNotExist means neither slot file exists; slot files that exist
// but hold no valid generation, or cannot be read, are an error naming
// the path.
func ReadSlots(path string) ([]byte, uint64, error) {
	var heads [2]slotHead
	defer func() {
		for _, h := range heads {
			h.close()
		}
	}()
	present := 0
	for i := range heads {
		h, err := readSlotHead(SlotPath(path, i), i)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		heads[i] = h
		present++
	}
	if present == 0 {
		return nil, 0, fmt.Errorf("atomicio: no slot file at %s: %w", path, fs.ErrNotExist)
	}
	// Newest first; a slot whose payload fails its CRC yields to the
	// other.
	order := [2]int{0, 1}
	if heads[1].gen > heads[0].gen {
		order = [2]int{1, 0}
	}
	for _, i := range order {
		h := heads[i]
		if h.gen == 0 {
			continue // absent, or its header is invalid
		}
		payload, err := h.payload()
		if err != nil {
			return nil, 0, err
		}
		if payload != nil {
			return payload, h.gen, nil
		}
	}
	return nil, 0, fmt.Errorf("atomicio: no valid generation in %s or %s", SlotPath(path, 0), SlotPath(path, 1))
}

// slotHead is an open slot file whose header passed every check but the
// CRC; gen is 0 for a file whose header did not.
type slotHead struct {
	f    *os.File
	path string
	hdr  [slotHeader]byte
	gen  uint64
	n    int64
}

// readSlotHead opens slot i at path and checks its header: the magic,
// the version, a generation of slot i's parity and a payload that fits
// the file. An error wrapping fs.ErrNotExist means no file.
func readSlotHead(path string, i int) (slotHead, error) {
	f, err := os.Open(path)
	if err != nil {
		return slotHead{}, err
	}
	h := slotHead{f: f, path: path}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return slotHead{}, fmt.Errorf("atomicio: stat %s: %w", path, err)
	}
	if _, err := f.ReadAt(h.hdr[:], 0); err != nil {
		if err == io.EOF {
			return h, nil // shorter than a header: invalid
		}
		f.Close()
		return slotHead{}, fmt.Errorf("atomicio: read %s: %w", path, err)
	}
	gen, n, ok := parseSlotHeader(h.hdr[:], i, st.Size())
	if ok {
		h.gen, h.n = gen, n
	}
	return h, nil
}

// parseSlotHeader checks a slot header against everything but the CRC.
func parseSlotHeader(hdr []byte, i int, fileSize int64) (gen uint64, n int64, ok bool) {
	if string(hdr[0:4]) != slotMagic || binary.LittleEndian.Uint32(hdr[4:8]) != slotVersion {
		return 0, 0, false
	}
	gen = binary.LittleEndian.Uint64(hdr[8:16])
	length := binary.LittleEndian.Uint64(hdr[16:24])
	if gen == 0 || gen%2 != uint64(i) || fileSize < slotHeader || length > uint64(fileSize-slotHeader) {
		return 0, 0, false
	}
	return gen, int64(length), true
}

// payload reads the slot's payload and returns it if the CRC matches,
// nil if not.
func (h slotHead) payload() ([]byte, error) {
	buf := make([]byte, h.n)
	if _, err := h.f.ReadAt(buf, slotHeader); err != nil {
		if err == io.EOF {
			return nil, nil // the file shrank under us: invalid
		}
		return nil, fmt.Errorf("atomicio: read %s: %w", h.path, err)
	}
	sum := crc32.Update(crc32.Update(0, castagnoli, h.hdr[:24]), castagnoli, buf)
	if sum != binary.LittleEndian.Uint32(h.hdr[24:28]) {
		return nil, nil
	}
	return buf, nil
}

func (h slotHead) close() {
	if h.f != nil {
		h.f.Close()
	}
}
