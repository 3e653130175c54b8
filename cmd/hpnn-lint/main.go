// Command hpnn-lint runs the repo's in-tree static analyzer: a pure-stdlib
// go/ast + go/types pass that enforces the zero-alloc, determinism, and
// concurrency invariants the runtime tests can only verify after the fact.
// See DESIGN.md §11 for the check catalogue.
//
// Usage:
//
//	hpnn-lint [-json] [-checks noalloc,gofunc] [-list] [packages]
//
// Packages default to ./... (the whole module; the analyzer always loads
// and type-checks the full module, the argument only filters which packages
// diagnostics are reported for). Exit status is 0 when clean, 1 when any
// diagnostic is reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hpnn/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list registered checks and exit")
	flag.Parse()

	if *list {
		for _, c := range analysis.Checks() {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	prog, err := analysis.Load(root)
	if err != nil {
		fatal(err)
	}

	var names []string
	if *checks != "" {
		for _, n := range strings.Split(*checks, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
	}
	diags, err := analysis.Lint(prog, names...)
	if err != nil {
		fatal(err)
	}
	diags = filterPatterns(diags, prog, flag.Args(), root)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "hpnn-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// filterPatterns keeps diagnostics whose file falls under one of the
// ./...-style package arguments. No arguments (or ./...) keeps everything.
func filterPatterns(diags []analysis.Diagnostic, prog *analysis.Program, args []string, root string) []analysis.Diagnostic {
	if len(args) == 0 {
		return diags
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	type pat struct {
		rel string // module-root-relative dir prefix, "" = whole module
		sub bool   // trailing /... — include subdirectories
	}
	var pats []pat
	for _, a := range args {
		sub := false
		if rest, ok := strings.CutSuffix(a, "/..."); ok {
			a, sub = rest, true
		} else if a == "..." {
			a, sub = ".", true
		}
		abs := a
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, a)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			fatal(fmt.Errorf("package argument %q is outside the module", a))
		}
		if rel == "." {
			rel = ""
		}
		pats = append(pats, pat{rel: filepath.ToSlash(rel), sub: sub})
	}
	var kept []analysis.Diagnostic
	for _, d := range diags {
		dir := filepath.ToSlash(filepath.Dir(d.File))
		if dir == "." {
			dir = ""
		}
		for _, p := range pats {
			if dir == p.rel || (p.sub && (p.rel == "" || strings.HasPrefix(dir, p.rel+"/"))) {
				kept = append(kept, d)
				break
			}
		}
	}
	return kept
}

// findModuleRoot walks up from the working directory to the enclosing
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hpnn-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hpnn-lint:", err)
	os.Exit(2)
}
