package farm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The queue log is the farm's write-ahead journal: every job
// lifecycle event (submit, done, fail) is framed, appended and
// fsynced before the server acknowledges it, and startup replays the
// log to rebuild the job table — the goPhat queuedisk recipe. Frame
// layout, little-endian:
//
//	[4B payload length][4B CRC-32 (IEEE) of payload][payload JSON]
//
// Because records are fsynced append-only, corruption can only live
// at the tail (a record torn by a crash mid-append). Replay therefore
// stops at the first frame that fails its length or checksum, and
// truncates the file back to the last good frame so the next append
// starts on a clean boundary. Everything before the torn tail is
// acknowledged state and is never dropped. A running log keeps that
// true: an append whose write or fsync fails is cut off again before
// the next one (Append), so no acknowledged frame ever lands behind a
// torn one.

// walRecordMax bounds a single frame's payload. Real records are a
// few hundred bytes of job-spec JSON; the cap keeps a corrupt length
// field from asking replay to allocate gigabytes.
const walRecordMax = 16 << 20

// walFile is what a queue log writes through once it is open: frames go
// out with Write and are made durable with Sync, and a failed append is
// cut off again with Truncate and Seek. *os.File is the one
// implementation outside tests, which inject short writes and failed
// syncs through it.
type walFile interface {
	io.WriteCloser
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// wal is an append-only fsynced record log.
type wal struct {
	f    walFile
	path string
	// end is the offset just past the last acknowledged frame: where
	// the next frame goes, and where a failed append is cut back to.
	end int64
	// err, once set, refuses every later append: a failed append whose
	// bytes could not be cut off would leave later frames behind a torn
	// one, where replay never reaches them.
	err error
}

// openWAL opens (creating if absent) the log at path, replays every
// intact record, truncates any torn tail, and returns the log
// positioned for appending.
func openWAL(path string) (*wal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("farm: open queue log: %w", err)
	}
	recs, good, err := replayWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	// A torn tail is expected after a crash; cut back to the last
	// acknowledged frame so appends resume on a clean boundary.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("farm: truncate torn queue-log tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("farm: seek queue log: %w", err)
	}
	return &wal{f: f, path: path, end: good}, recs, nil
}

// replayWAL scans frames from the start of f, returning the intact
// payloads and the offset just past the last good frame. Torn or
// corrupt tails end the scan without error; only I/O failures on the
// underlying file are fatal.
func replayWAL(f *os.File) (recs [][]byte, good int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("farm: seek queue log: %w", err)
	}
	r := struct{ io.Reader }{f} // hide ReadByte etc.; plain stream reads
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF or a header torn mid-write: the tail.
			return recs, good, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > walRecordMax {
			// A corrupt length field; treat as torn tail.
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, nil
		}
		recs = append(recs, payload)
		good += int64(8 + int64(n))
	}
}

// Append frames payload, writes it and fsyncs. The record is durable
// when Append returns; on error the caller must treat the record as
// unacknowledged. A write or sync that fails cuts the log back to its
// last acknowledged frame, so the next append starts on a clean
// boundary instead of behind the failed record's bytes; if the cut
// fails too, the log refuses every later append.
func (w *wal) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(payload) > walRecordMax {
		return fmt.Errorf("farm: queue-log record of %d bytes exceeds the %d cap", len(payload), walRecordMax)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := w.f.Write(frame); err != nil {
		return w.rollback(fmt.Errorf("farm: append queue log: %w", err))
	}
	if err := w.f.Sync(); err != nil {
		return w.rollback(fmt.Errorf("farm: sync queue log: %w", err))
	}
	w.end += int64(len(frame))
	return nil
}

// rollback cuts the log back to its last acknowledged frame after the
// failed append err, and returns err. A log that cannot be cut back is
// refused from then on.
func (w *wal) rollback(err error) error {
	if terr := w.f.Truncate(w.end); terr != nil {
		w.err = fmt.Errorf("%w; queue log refuses appends: truncate: %w", err, terr)
		return w.err
	}
	if _, serr := w.f.Seek(w.end, io.SeekStart); serr != nil {
		w.err = fmt.Errorf("%w; queue log refuses appends: seek: %w", err, serr)
		return w.err
	}
	return err
}

// Close releases the log file, propagating the close error (a delayed
// write failure surfaces here on some filesystems).
func (w *wal) Close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("farm: close queue log: %w", err)
	}
	return nil
}
