package farm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func openForTest(t *testing.T, path string) (*wal, [][]byte) {
	t.Helper()
	w, recs, err := openWAL(path)
	if err != nil {
		t.Fatalf("openWAL: %v", err)
	}
	return w, recs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, recs := openForTest(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []string{"one", "two", `{"op":"submit","id":"job-1"}`}
	for _, r := range want {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, recs := openForTest(t, path)
	defer w2.Close()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if string(r) != want[i] {
			t.Errorf("record %d = %q, want %q", i, r, want[i])
		}
	}
}

// TestWALTornTailTruncated: a crash mid-append leaves a torn final
// frame; replay must recover every acknowledged record, drop the torn
// tail, and leave the log appendable.
func TestWALTornTailTruncated(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int // bytes to keep of the final frame (8 hdr + 5 payload)
	}{
		{"mid-header", 3},
		{"header-only", 8},
		{"mid-payload", 10},
	} {
		t.Run(cut.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.log")
			w, _ := openForTest(t, path)
			if err := w.Append([]byte("good1")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := w.Append([]byte("good2")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := w.Append([]byte("torn!")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatalf("Stat: %v", err)
			}
			if err := os.Truncate(path, st.Size()-13+int64(cut.bytes)); err != nil {
				t.Fatalf("Truncate: %v", err)
			}

			w2, recs := openForTest(t, path)
			if len(recs) != 2 || string(recs[0]) != "good1" || string(recs[1]) != "good2" {
				t.Fatalf("replay after torn tail = %q, want [good1 good2]", recs)
			}
			// The log must be clean for appending again.
			if err := w2.Append([]byte("after-recovery")); err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if err := w2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			w3, recs := openForTest(t, path)
			defer w3.Close()
			if len(recs) != 3 || string(recs[2]) != "after-recovery" {
				t.Fatalf("replay after re-append = %q", recs)
			}
		})
	}
}

// TestWALCorruptChecksumEndsReplay: a flipped payload bit fails the
// CRC and ends replay at the previous record.
func TestWALCorruptChecksumEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, _ := openForTest(t, path)
	if err := w.Append([]byte("good")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append([]byte("rotten")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	w2, recs := openForTest(t, path)
	defer w2.Close()
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("replay past a corrupt record: %q", recs)
	}
}

// TestWALInsaneLengthEndsReplay: a corrupt length field must not make
// replay allocate gigabytes; it ends the scan like any torn tail.
func TestWALInsaneLengthEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, _ := openForTest(t, path)
	if err := w.Append([]byte("good")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<31)
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatalf("write corrupt header: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	w2, recs := openForTest(t, path)
	defer w2.Close()
	if len(recs) != 1 || string(recs[0]) != "good" {
		t.Fatalf("replay with insane length = %q", recs)
	}
}

func TestWALRejectsOversizeAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, _ := openForTest(t, path)
	defer w.Close()
	if err := w.Append(make([]byte, walRecordMax+1)); err == nil {
		t.Fatal("Append accepted a record over the frame cap")
	}
}

func TestWALManyRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, _ := openForTest(t, path)
	const n = 200
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%03d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2, recs := openForTest(t, path)
	defer w2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := fmt.Sprintf("record-%03d", i); string(r) != want {
			t.Fatalf("record %d = %q, want %q", i, r, want)
		}
	}
}

var errInjected = errors.New("injected fault")

// faultFile is a queue log's file that fails on cue: a short write of
// short bytes, a failed sync (the frame itself was written), or a
// failed truncate.
type faultFile struct {
	walFile
	short        int
	failSync     bool
	failTruncate bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.short > 0 {
		n, _ := f.walFile.Write(p[:min(f.short, len(p))])
		f.short = 0
		return n, errInjected
	}
	return f.walFile.Write(p)
}

func (f *faultFile) Sync() error {
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.walFile.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		return errInjected
	}
	return f.walFile.Truncate(size)
}

// replayStrings reopens the log at path and returns its records.
func replayStrings(t *testing.T, path string) []string {
	t.Helper()
	w, recs := openForTest(t, path)
	defer w.Close()
	var out []string
	for _, r := range recs {
		out = append(out, string(r))
	}
	return out
}

// TestWALFailedAppendLeavesLogClean: an append whose write stops short
// or whose sync fails is not acknowledged, and is cut off again, so
// every record acknowledged before or after it replays and it does not.
func TestWALFailedAppendLeavesLogClean(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultFile
	}{
		{"short write", faultFile{short: 9}},
		{"failed sync", faultFile{failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.log")
			w, _ := openForTest(t, path)
			ff := &faultFile{walFile: w.f}
			w.f = ff
			for _, r := range []string{"before-1", "before-2"} {
				if err := w.Append([]byte(r)); err != nil {
					t.Fatalf("Append %s: %v", r, err)
				}
			}
			ff.short, ff.failSync = tc.fault.short, tc.fault.failSync
			if err := w.Append([]byte("failed")); !errors.Is(err, errInjected) {
				t.Fatalf("Append under an injected fault: %v", err)
			}
			if err := w.Append([]byte("after")); err != nil {
				t.Fatalf("Append after a failed append: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			want := []string{"before-1", "before-2", "after"}
			if got := replayStrings(t, path); !slices.Equal(got, want) {
				t.Fatalf("replay = %q, want %q", got, want)
			}
		})
	}
}

// TestWALRefusesAppendsWhenRollbackFails: a failed append that cannot
// be cut off leaves torn bytes at the tail; the log then refuses every
// later append rather than write a frame replay would never reach.
func TestWALRefusesAppendsWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.log")
	w, _ := openForTest(t, path)
	ff := &faultFile{walFile: w.f}
	w.f = ff
	if err := w.Append([]byte("before")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	ff.short, ff.failTruncate = 9, true
	if err := w.Append([]byte("failed")); !errors.Is(err, errInjected) {
		t.Fatalf("Append under an injected fault: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append([]byte("refused")); err == nil {
			t.Fatal("a log with torn bytes it could not cut off accepted an append")
		}
	}
	if now, err := os.Stat(path); err != nil || now.Size() != st.Size() {
		t.Fatalf("a refused append wrote to the log (%v)", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := replayStrings(t, path); !slices.Equal(got, []string{"before"}) {
		t.Fatalf("replay = %q, want [before]", got)
	}
}

// walFrame is one queue-log frame as the package comment lays it out:
// payload length, CRC-32 (IEEE) of the payload, payload.
func walFrame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
	return append(b, payload...)
}

// FuzzReplayWAL opens arbitrary bytes as a queue log. openWAL never
// panics and replays only frames whose CRC holds, from the start of the
// file: framed again, they are its first bytes, and the file is cut to
// exactly their length. An Append after that replays as those frames
// plus the new one.
func FuzzReplayWAL(f *testing.F) {
	one, two := walFrame("one"), walFrame(`{"op":"submit","id":"job-1"}`)
	f.Add([]byte{})
	f.Add(one)
	f.Add(append(slices.Clone(one), two...))
	f.Add(append(slices.Clone(one), two[:10]...)) // torn mid-payload
	f.Add(append(slices.Clone(one), two[:3]...))  // torn mid-header
	rotten := append(slices.Clone(one), two...)
	rotten[len(rotten)-1] ^= 0xFF
	f.Add(rotten)
	f.Add(append(slices.Clone(one), 0, 0, 0, 0x80, 0, 0, 0, 0)) // a length past the cap
	f.Add(walFrame(""))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "queue.log")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		w, recs := openForTest(t, path)
		var framed []byte
		for _, r := range recs {
			framed = append(framed, walFrame(string(r))...)
		}
		if !bytes.HasPrefix(raw, framed) {
			t.Fatalf("replayed %q, whose frames are not the start of the log", recs)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(framed)) {
			t.Fatalf("log of %d bytes after replaying %d bytes of frames", fi.Size(), len(framed))
		}
		if err := w.Append([]byte("appended")); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		var want []string
		for _, r := range recs {
			want = append(want, string(r))
		}
		if got := replayStrings(t, path); !slices.Equal(got, append(want, "appended")) {
			t.Fatalf("after an append the log replays %q, want %q", got, append(want, "appended"))
		}
	})
}
