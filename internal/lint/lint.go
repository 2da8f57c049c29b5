// Package lint is the fleet's determinism lint framework: a small,
// dependency-free reimplementation of the golang.org/x/tools
// go/analysis shape (Analyzer, Pass, diagnostics) plus the annotation
// grammar that scopes the determinism rules to the code that stakes
// bit-exact replay on them.
//
// Everything added since PR 1 — checkpoint/resume, barrier weight
// averaging, the fleet pool, off-barrier learning — promises that two
// runs of the same seed produce bit-identical trajectories and
// checkpoint bytes. That invariant is asserted at runtime by table
// tests, but a runtime test cannot see a freshly introduced unordered
// map range or a stray wall-clock read until it flakes. The analyzers
// in this package (see mapiter.go, wallclock.go, globalrand.go,
// floatorder.go, errdrop.go) move that enforcement to compile time; cmd/fuzzlint is the multichecker that
// runs them over the module.
//
// # Annotation grammar
//
// Scope — which files the deterministic-path analyzers inspect — is
// opt-in via directive comments:
//
//	//chatfuzz:deterministic package   → every file of the package
//	//chatfuzz:deterministic           → this file only
//	//chatfuzz:deterministic file      → this file only (explicit form)
//
// The package form conventionally sits directly above the package
// clause of the package's doc file. Unscoped analyzers (errdrop) run
// over every file regardless of annotation.
//
// Individual findings are silenced with an explicit, reasoned escape:
//
//	//lint:allow <analyzer> <reason>
//
// which covers its own source line and the line directly below it
// (so it works both as a trailing comment and on its own line above
// the finding). The reason is mandatory, the analyzer name must be
// one the runner knows, and an allow that suppresses nothing is
// itself reported — escapes must stay live, or they rot into blanket
// waivers. Grammar violations are reported by the pseudo-analyzer
// "directive" and cannot be suppressed.
//
// The framework is stdlib-only on purpose: the build environment has
// no module proxy, so golang.org/x/tools (and with it the stock
// nilness pass, which needs its SSA package) cannot be vendored;
// nilness is deferred until x/tools can be pulled in. The stock
// copylocks and atomic passes are not reimplemented here: CI's
// `go vet ./...` step already runs the originals.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named lint rule, mirroring the x/tools analysis
// shape so rules port over directly if the dependency ever lands.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:allow
	// comments.
	Name string
	// Doc is the one-paragraph rule description shown by
	// `fuzzlint -list`.
	Doc string
	// Scoped analyzers only inspect files inside the
	// //chatfuzz:deterministic annotation scope; unscoped analyzers
	// see every file of every package.
	Scoped bool
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the syntax trees in scope for this analyzer: the
	// package's deterministic-annotated files for scoped analyzers,
	// all files otherwise.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// InModule reports whether a types.Package was loaded from the
	// module under analysis (as opposed to the standard library);
	// analyzers use it to restrict themselves to repo-local callees.
	InModule func(*types.Package) bool

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// directiveName is the pseudo-analyzer that owns annotation-grammar
// findings (malformed directives, unknown analyzer names in allows,
// unused allows). It is not suppressible.
const directiveName = "directive"

const (
	detPrefix   = "chatfuzz:"
	allowPrefix = "lint:allow"
)

// directiveBody strips the comment markers: both //-form and
// /* */-form directives are honored (the block form lets a directive
// share a line with other trailing comments).
func directiveBody(text string) string {
	if rest, ok := strings.CutPrefix(text, "//"); ok {
		return rest
	}
	return strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/")
}

// allow is one parsed //lint:allow comment.
type allow struct {
	file     string
	line     int
	analyzer string
	pos      token.Pos
	used     bool
}

// directives is the parsed annotation state of one package.
type directives struct {
	pkgDet   bool               // any file carries the package form
	fileDet  map[*ast.File]bool // files carrying the file form
	allows   []*allow
	problems []Diagnostic // grammar findings, attributed to "directive"
}

// parseDirectives scans every comment of the package for the
// annotation grammar. known is the set of analyzer names valid in
// allow comments.
func parseDirectives(fset *token.FileSet, files []*ast.File, known map[string]bool) *directives {
	d := &directives{fileDet: make(map[*ast.File]bool)}
	problem := func(pos token.Pos, format string, args ...any) {
		d.problems = append(d.problems, Diagnostic{
			Pos:      fset.Position(pos),
			Analyzer: directiveName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := directiveBody(c.Text)
				switch {
				case strings.HasPrefix(text, detPrefix):
					rest := strings.TrimPrefix(text, detPrefix)
					fields := strings.Fields(rest)
					if len(fields) == 0 || fields[0] != "deterministic" {
						problem(c.Pos(), "unknown chatfuzz directive %q (want //chatfuzz:deterministic [package|file])", c.Text)
						continue
					}
					switch {
					case len(fields) == 1 || (len(fields) == 2 && fields[1] == "file"):
						d.fileDet[f] = true
					case len(fields) == 2 && fields[1] == "package":
						d.pkgDet = true
					default:
						problem(c.Pos(), "malformed deterministic directive %q (want //chatfuzz:deterministic [package|file])", c.Text)
					}
				case strings.HasPrefix(text, allowPrefix):
					rest := strings.TrimPrefix(text, allowPrefix)
					if rest != "" && !strings.HasPrefix(rest, " ") {
						// e.g. //lint:allowx — not ours.
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						problem(c.Pos(), "lint:allow needs an analyzer name and a reason")
						continue
					}
					name := fields[0]
					if !known[name] {
						problem(c.Pos(), "lint:allow names unknown analyzer %q", name)
						continue
					}
					if len(fields) < 2 {
						problem(c.Pos(), "lint:allow %s needs a reason", name)
						continue
					}
					pos := fset.Position(c.Pos())
					d.allows = append(d.allows, &allow{
						file:     pos.Filename,
						line:     pos.Line,
						analyzer: name,
						pos:      c.Pos(),
					})
				}
			}
		}
	}
	return d
}

// scopedFiles returns the files a scoped analyzer should see.
func (d *directives) scopedFiles(files []*ast.File) []*ast.File {
	if d.pkgDet {
		return files
	}
	var out []*ast.File
	for _, f := range files {
		if d.fileDet[f] {
			out = append(out, f)
		}
	}
	return out
}

// suppress marks the allow covering diag as used and reports whether
// one exists. An allow covers its own line and the next line, so it
// works both trailing the finding and on its own line above it.
func (d *directives) suppress(diag Diagnostic) bool {
	for _, a := range d.allows {
		if a.analyzer != diag.Analyzer || a.file != diag.Pos.Filename {
			continue
		}
		if a.line == diag.Pos.Line || a.line == diag.Pos.Line-1 {
			a.used = true
			return true
		}
	}
	return false
}

// Run applies the analyzers to the packages and returns the surviving
// diagnostics sorted by position. Directive-grammar findings and
// unused allows are included under the pseudo-analyzer "directive".
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	ran := make(map[string]bool, len(analyzers))
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		// Accept allows for any registered analyzer, but only judge an
		// allow unused when its analyzer actually ran: a partial
		// -analyzers invocation must not condemn the others' escapes.
		known[a.Name] = true
		ran[a.Name] = true
	}

	inModule := func(p *types.Package) bool { return false }
	if len(pkgs) > 0 && pkgs[0].loader != nil {
		l := pkgs[0].loader
		inModule = func(p *types.Package) bool { return l.owns(p) }
	}

	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := parseDirectives(pkg.Fset, pkg.Syntax, known)
		var raw []Diagnostic
		for _, a := range analyzers {
			files := pkg.Syntax
			if a.Scoped {
				files = dirs.scopedFiles(files)
			}
			if len(files) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				InModule:  inModule,
				diags:     &raw,
			}
			a.Run(pass)
		}
		for _, diag := range raw {
			if !dirs.suppress(diag) {
				out = append(out, diag)
			}
		}
		out = append(out, dirs.problems...)
		for _, a := range dirs.allows {
			if !a.used && ran[a.analyzer] {
				out = append(out, Diagnostic{
					Pos:      pkg.Fset.Position(a.pos),
					Analyzer: directiveName,
					Message:  fmt.Sprintf("lint:allow %s suppresses nothing; remove it", a.analyzer),
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}
