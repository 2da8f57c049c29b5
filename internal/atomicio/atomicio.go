// Package atomicio writes files crash-safely.
//
// WriteFile replaces a file whole: content lands in a same-directory
// temporary file, is fsynced, and is renamed over the destination,
// after which the directory itself is fsynced. At every instant the
// destination path holds either the complete old contents or the
// complete new contents — a crash, kill -9 or full disk mid-write can
// delay an update but can never tear one, and a reader that opens the
// path while a write is in flight gets the old file or the new one
// whole. This is the write path of every campaign checkpoint (the
// CLI's and campd's per-job one alike), model weights, and the
// benchmark JSON the CI gates read back.
//
// Close errors are propagated, never dropped: on many filesystems a
// write error only surfaces at Close or Sync, and a writer that
// ignores them reports durable success for data that never reached
// the disk.
//
//chatfuzz:deterministic package
package atomicio

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// tempSuffix follows path's base name in the name of its staging files,
// ahead of CreateTemp's random digits.
const tempSuffix = ".tmp"

// WriteFile atomically replaces path with the bytes that write
// produces. The data is staged in a temporary file next to path
// (same directory, so the final rename cannot cross filesystems),
// fsynced, renamed over path, and the directory entry is fsynced too.
// If write or any durability step fails, the temporary file is
// removed and path is left exactly as it was.
func WriteFile(path string, write func(io.Writer) error) error {
	return writeFile(path, write, os.Rename)
}

// writeFile is WriteFile with the rename injected, so tests can fail it.
func writeFile(path string, write func(io.Writer) error, rename func(oldpath, newpath string) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+tempSuffix+"*")
	if err != nil {
		return fmt.Errorf("atomicio: stage %s: %w", path, err)
	}
	tmp := f.Name()
	// Any failure below abandons the staged file; the destination is
	// untouched until the rename.
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	// CreateTemp makes 0o600 files; the rename replaces the whole
	// directory entry, so the staged mode is the final mode.
	if err = f.Chmod(0o644); err != nil {
		return fmt.Errorf("atomicio: chmod %s: %w", tmp, err)
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", tmp, err)
	}
	if err = rename(tmp, path); err != nil {
		return fmt.Errorf("atomicio: rename %s: %w", path, err)
	}
	// Durability of the rename itself: fsync the directory so the new
	// entry survives a crash. Errors matter as much as the file's own
	// sync — a lost directory update resurrects the old file.
	if err = syncDir(dir); err != nil {
		return err
	}
	return nil
}

// WriteFileBytes atomically replaces path with data.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// RemoveTemps deletes the staging files that WriteFile calls on path
// left behind when their process was killed between creating the file
// and renaming it; nothing else ever removes them. Only the sole writer
// of path may call it, and not during a write: to anyone else a staging
// file may be a write in flight.
func RemoveTemps(path string) error {
	dir, prefix := filepath.Dir(path), filepath.Base(path)+tempSuffix
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("atomicio: list %s: %w", dir, err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("atomicio: stale temp: %w", err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("atomicio: open dir %s: %w", dir, err)
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return fmt.Errorf("atomicio: sync dir %s: %w", dir, err)
	}
	if err := d.Close(); err != nil {
		return fmt.Errorf("atomicio: close dir %s: %w", dir, err)
	}
	return nil
}

// Fsync flushes an *os.File-backed writer to stable storage; it is a
// no-op for writers that have no Sync (test buffers, pipes wrapped in
// interfaces). Sinks that append records incrementally (JSONL logs,
// the farm's queue log) use this to bound loss to the final record
// instead of the whole file.
func Fsync(w io.Writer) error {
	if s, ok := w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}
