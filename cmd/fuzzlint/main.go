// Command fuzzlint is the fleet's determinism multichecker: it runs
// the internal/lint analyzer suite — the compile-time enforcement of
// the bit-exactness invariants every layer since PR 1 stakes replay
// on — over the module's packages and fails on any finding.
//
// Usage:
//
//	fuzzlint [-analyzers mapiter,wallclock,...] [-json] [-list] [packages]
//
// Packages default to ./... and are directory patterns relative to
// the current directory ("./...", "./internal/campaign",
// "./internal/..."). Non-test files only: the runtime determinism
// invariants live in production code; the table tests assert them at
// runtime.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// See internal/lint's package documentation for the rule set and the
// //chatfuzz:deterministic / //lint:allow annotation grammar.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"chatfuzz/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fuzzlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list the analyzers and exit")
		asJSON   = fs.Bool("json", false, "emit findings as JSON")
		analyzes = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			scope := "all files"
			if a.Scoped {
				scope = "deterministic scope"
			}
			fmt.Fprintf(stdout, "%-12s (%s)  %s\n", a.Name, scope, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *analyzes != "" {
		var unknown string
		var ok bool
		analyzers, unknown, ok = lint.ByName(strings.Split(*analyzes, ","))
		if !ok {
			fmt.Fprintf(stderr, "fuzzlint: unknown analyzer %q (see -list)\n", unknown)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
		return 2
	}
	// Patterns are relative to the invoking directory, the loader's to
	// the module root; rebase.
	rel, err := filepath.Rel(root, cwd)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
		return 2
	}
	for i, p := range patterns {
		patterns[i] = filepath.ToSlash(filepath.Join(rel, p))
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "fuzzlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			line := d.String()
			// Shorten absolute paths to cwd-relative for readable,
			// clickable output.
			if r, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
				line = fmt.Sprintf("%s:%d:%d: [%s] %s", r, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "fuzzlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
