package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// TestSeparatedPackageDirectiveScopes: gofmt (Go >= 1.19) moves a
// directive that follows a doc comment behind a bare "//" line, and
// parses it as part of the doc comment group. Every package annotated
// that way must still load as package-scoped, or TestRepoIsClean would
// pass by inspecting nothing.
func TestSeparatedPackageDirectiveScopes(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load("./internal/mem", "./internal/rtl/...", "./internal/iss", "./internal/isa")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 7 {
		t.Fatalf("loaded %d packages, want mem, rtl, rocket, boom, uarch, iss and isa", len(pkgs))
	}
	for _, pkg := range pkgs {
		separated := false
		for _, f := range pkg.Syntax {
			separated = separated || docEndsWithSeparatedDirective(f)
		}
		if !separated {
			t.Errorf("%s: no file carries the directive in gofmt's separated form", pkg.PkgPath)
		}
		if d := parseDirectives(pkg.Fset, pkg.Syntax, map[string]bool{"mapiter": true}); !d.pkgDet {
			t.Errorf("%s: separated package directive did not put the package in scope", pkg.PkgPath)
		}
	}
}

// docEndsWithSeparatedDirective reports whether f's package doc ends
// "//" then "//chatfuzz:deterministic package".
func docEndsWithSeparatedDirective(f *ast.File) bool {
	if f.Doc == nil || len(f.Doc.List) < 2 {
		return false
	}
	n := len(f.Doc.List)
	return f.Doc.List[n-2].Text == "//" && strings.HasPrefix(f.Doc.List[n-1].Text, "//chatfuzz:deterministic package")
}
