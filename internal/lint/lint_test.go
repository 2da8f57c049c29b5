package lint_test

import (
	"testing"

	"chatfuzz/internal/lint"
	"chatfuzz/internal/lint/linttest"
)

// Each fixture package under testdata/src pins one analyzer's
// positives (want comments) and negatives (silence everywhere else);
// the harness fails on both missed wants and unexpected findings.

func TestMapiter(t *testing.T) {
	linttest.Run(t, "testdata/src", "mapiter", lint.Mapiter)
}

func TestWallclock(t *testing.T) {
	linttest.Run(t, "testdata/src", "wallclock", lint.Wallclock)
}

func TestGlobalrand(t *testing.T) {
	linttest.Run(t, "testdata/src", "globalrand", lint.Globalrand)
}

func TestFloatorder(t *testing.T) {
	linttest.Run(t, "testdata/src", "floatorder", lint.Floatorder)
}

func TestErrdrop(t *testing.T) {
	linttest.Run(t, "testdata/src", "errdrop", lint.Errdrop)
}

// TestAllowDirectives exercises the annotation grammar: live allows
// suppress silently, dead allows and malformed directives are
// "directive" findings.
func TestAllowDirectives(t *testing.T) {
	linttest.Run(t, "testdata/src", "allowdir", lint.Wallclock)
}

// TestFileScope checks that the file form of the annotation scopes
// exactly one file: scoped.go is inspected, unscoped.go is not.
func TestFileScope(t *testing.T) {
	linttest.Run(t, "testdata/src", "scope", lint.Wallclock)
}

// TestPackageScope checks that the package form in a doc file pulls
// every file of the package into scope.
func TestPackageScope(t *testing.T) {
	linttest.Run(t, "testdata/src", "pkgscope", lint.Wallclock)
}
