// Package analysis is hpnn's in-tree static analyzer. It loads and
// type-checks every package in the module using only the standard library
// (go/parser, go/types, and the source importer for stdlib dependencies),
// then runs a registry of named checks that enforce the repo's zero-alloc,
// determinism, and concurrency invariants at review time instead of run
// time. See DESIGN.md §11 for the check catalogue and the suppression
// syntax.
package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked module package: its syntax, its type
// information, and enough position context to report file:line diagnostics.
type Package struct {
	Path  string // import path, e.g. "hpnn/internal/tensor"
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the fully loaded module: every non-test package, type-checked
// against its in-module and stdlib dependencies, sharing one FileSet.
type Program struct {
	Fset   *token.FileSet
	Module string // module path from go.mod ("hpnn")
	Root   string // absolute module root
	Pkgs   []*Package
	Config Config

	byPath    map[string]*Package
	callgraph *CallGraph // built lazily by CallGraph()
}

// loader type-checks module packages in dependency order. Stdlib imports are
// delegated to the standard source importer; module-internal imports recurse
// into the loader itself, so one pass over the directory tree yields a
// consistent, fully typed view of the module with zero external tooling.
type loader struct {
	fset   *token.FileSet
	module string
	root   string
	std    types.ImporterFrom
	pkgs   map[string]*Package
	active map[string]bool // cycle detection
}

// Load walks the module rooted at root (a directory containing go.mod, or a
// bare directory for single-package test loads), parses every non-test
// package honoring build constraints, and type-checks the lot. Test files
// are excluded by design: the checks police production code, and several
// invariants (time.Now, allocation) are explicitly relaxed in tests.
func Load(root string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	module := readModulePath(abs)
	l := &loader{
		fset:   token.NewFileSet(),
		module: module,
		root:   abs,
		pkgs:   make(map[string]*Package),
		active: make(map[string]bool),
	}
	l.std, _ = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)

	dirs, err := packageDirs(abs)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := l.load(l.importPathFor(dir)); err != nil {
			return nil, err
		}
	}

	prog := &Program{
		Fset:   l.fset,
		Module: module,
		Root:   abs,
		Config: DefaultConfig(),
		byPath: l.pkgs,
	}
	for _, pkg := range l.pkgs {
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	return prog, nil
}

// readModulePath extracts the module path from root/go.mod, falling back to
// the directory base name so bare testdata directories load as a
// self-contained single-package module.
func readModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return filepath.Base(root)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return filepath.Base(root)
}

// packageDirs returns every directory under root that holds buildable Go
// files, skipping testdata, vendor, hidden directories, and the analyzer's
// own golden fixtures.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func (l *loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil || rel == "." {
		return l.module
	}
	return l.module + "/" + filepath.ToSlash(rel)
}

func (l *loader) dirFor(path string) string {
	if path == l.module {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
}

// Import implements types.Importer by routing module-internal paths through
// the loader and everything else (stdlib) through the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.std == nil {
		return nil, fmt.Errorf("analysis: no stdlib importer for %q", path)
	}
	return l.std.ImportFrom(path, l.root, 0)
}

// load parses and type-checks one module package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.active[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.active[path] = true
	defer delete(l.active, path)

	dir := l.dirFor(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
