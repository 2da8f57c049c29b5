package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", path, err)
	}
	return string(b)
}

// listTemps returns the leftover staging files for path, which must be
// none after any completed WriteFile — success or failure.
func listTemps(t *testing.T, path string) []string {
	t.Helper()
	matches, err := filepath.Glob(path + ".tmp*")
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	return matches
}

func TestWriteFileCreatesAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileBytes(path, []byte("gen-1")); err != nil {
		t.Fatalf("WriteFileBytes: %v", err)
	}
	if got := readFile(t, path); got != "gen-1" {
		t.Fatalf("content = %q, want gen-1", got)
	}
	if err := WriteFileBytes(path, []byte("gen-2")); err != nil {
		t.Fatalf("WriteFileBytes (replace): %v", err)
	}
	if got := readFile(t, path); got != "gen-2" {
		t.Fatalf("content after replace = %q, want gen-2", got)
	}
	if tmps := listTemps(t, path); len(tmps) != 0 {
		t.Fatalf("staging files left behind: %v", tmps)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644", st.Mode().Perm())
	}
}

// TestWriteFileFailureLeavesTargetIntact is the torn-checkpoint
// regression: a writer that dies mid-stream (full disk, encoder
// error) must leave the previous generation byte-for-byte intact and
// clean up its staging file.
func TestWriteFileFailureLeavesTargetIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := WriteFileBytes(path, []byte("gen-1")); err != nil {
		t.Fatalf("WriteFileBytes: %v", err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		// Partial write, then failure — the classic torn write.
		if _, werr := io.WriteString(w, "gen-2 half-writ"); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the writer's own", err)
	}
	if got := readFile(t, path); got != "gen-1" {
		t.Fatalf("failed write clobbered the target: %q", got)
	}
	if tmps := listTemps(t, path); len(tmps) != 0 {
		t.Fatalf("failed write left staging files: %v", tmps)
	}
}

func TestWriteFileMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out")
	if err := WriteFileBytes(path, []byte("x")); err == nil {
		t.Fatal("WriteFileBytes into a missing directory succeeded")
	}
}

// TestWriteFileSurvivesStaleTemp: a crash between staging and rename
// leaves a *.tmp file behind; later writers must neither trip over it
// nor resurrect it.
func TestWriteFileSurvivesStaleTemp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out")
	stale := path + ".tmp-stale"
	if err := os.WriteFile(stale, []byte("torn half-checkpoint"), 0o600); err != nil {
		t.Fatalf("plant stale temp: %v", err)
	}
	if err := WriteFileBytes(path, []byte("fresh")); err != nil {
		t.Fatalf("WriteFileBytes with stale temp present: %v", err)
	}
	if got := readFile(t, path); got != "fresh" {
		t.Fatalf("content = %q, want fresh", got)
	}
}

// TestRemoveTempsDeletesOnlyStagingFiles: the debris of killed writes
// goes, the target, its neighbours and another file's staging do not,
// and a directory with nothing to remove is not an error.
func TestRemoveTempsDeletesOnlyStagingFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if err := WriteFileBytes(path, []byte("gen-1")); err != nil {
		t.Fatalf("WriteFileBytes: %v", err)
	}
	keep := []string{"ckpt.json.bak", "other.json.tmp1", "ckpt.jso.tmp2"}
	for _, name := range append([]string{"ckpt.json.tmp123456", "ckpt.json.tmp9"}, keep...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half"), 0o600); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	for call := 1; call <= 2; call++ {
		if err := RemoveTemps(path); err != nil {
			t.Fatalf("RemoveTemps call %d: %v", call, err)
		}
	}
	if tmps := listTemps(t, path); len(tmps) != 0 {
		t.Errorf("staging files left: %v", tmps)
	}
	if got := readFile(t, path); got != "gen-1" {
		t.Errorf("target now holds %q", got)
	}
	for _, name := range keep {
		if got := readFile(t, filepath.Join(dir, name)); got != "half" {
			t.Errorf("%s was touched", name)
		}
	}
	if err := RemoveTemps(filepath.Join(dir, "no-such-dir", "out")); err == nil {
		t.Error("RemoveTemps in a missing directory succeeded")
	}
}

func TestFsync(t *testing.T) {
	// Non-syncable writers are a no-op, not an error.
	var sb strings.Builder
	if err := Fsync(&sb); err != nil {
		t.Fatalf("Fsync(strings.Builder): %v", err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer f.Close()
	if _, err := fmt.Fprint(f, "line\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := Fsync(f); err != nil {
		t.Fatalf("Fsync(os.File): %v", err)
	}
}
