package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"chatfuzz/internal/core"
)

// TestRunSavesALoadableModel: one step of each training stage writes a
// model that a default pipeline, which is what `fuzz-bench campaign
// -model` builds, loads.
func TestRunSavesALoadableModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.gob")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-o", path, "-pretrain-steps", "1", "-cleanup-steps", "1", "-coverage-steps", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"corpus: 1200 functions", "after step 2", "model written to " + path} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, stdout.String())
		}
	}
	if err := core.NewPipeline(core.DefaultPipelineConfig()).Model.LoadFile(path); err != nil {
		t.Errorf("a default pipeline refuses the model: %v", err)
	}
}

// TestRunRefusesUsage: an unknown design or flag exits 2 before any
// training.
func TestRunRefusesUsage(t *testing.T) {
	for _, args := range [][]string{{"-dut", "cray-1"}, {"-corpus-functions", "600"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() > 0 {
			t.Errorf("%q: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
