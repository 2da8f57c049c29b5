package main

import (
	"bytes"
	"strings"
	"testing"

	"chatfuzz/internal/lint"
)

// TestList: -list prints one line per analyzer of the suite, by name.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	all := lint.All()
	if len(lines) != len(all) {
		t.Fatalf("-list printed %d lines for %d analyzers:\n%s", len(lines), len(all), stdout.String())
	}
	for i, a := range all {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != a.Name {
			t.Errorf("line %d is %q, want analyzer %q", i, lines[i], a.Name)
		}
	}
}

// TestUsageErrors: an unknown analyzer or flag exits 2, says why, and
// lints nothing.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-analyzers", "mapiter,nosuch"}, `unknown analyzer "nosuch"`},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || stdout.Len() > 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2, no output and %q",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestLintsThisPackage: a pattern is relative to the working
// directory, and this package is clean.
func TestLintsThisPackage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"."}, &stdout, &stderr); code != 0 {
		t.Errorf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}
