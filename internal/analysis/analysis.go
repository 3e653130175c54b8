package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Config names the package sets each check applies to. Patterns are import
// paths, with a trailing "/..." matching any subpackage. The defaults encode
// the repo's invariants; tests substitute their fixture package paths.
type Config struct {
	// MapRangePkgs restricts `for range` over maps (iteration order is
	// randomized, so a bare map range in a compute package breaks bitwise
	// reproducibility).
	MapRangePkgs []string
	// RandAllowPkgs may import math/rand; everywhere else must use the
	// deterministic internal/rng generators.
	RandAllowPkgs []string
	// TimeAllowPkgs may call time.Now/time.Since; wall-clock reads anywhere
	// else make key-dependent computation irreproducible.
	TimeAllowPkgs []string
	// GoStmtAllowPkgs may contain raw `go` statements; all other
	// parallelism must route through the tensor worker pool.
	GoStmtAllowPkgs []string
	// ErrcheckPkgs must not silently discard error returns.
	ErrcheckPkgs []string
	// NoAllocSuffixes name function-name suffixes that imply the
	// zero-allocation contract, in addition to //hpnn:noalloc annotations.
	NoAllocSuffixes []string
	// KeyflowSources name the key-material origins the keyflow taint
	// analysis seeds from, as "pkg:Func", "pkg:Type.Method", or
	// "pkg:Type.Field" patterns.
	KeyflowSources []string
	// KeyflowSinks name module functions that put bytes on an external
	// boundary (the serve wire encoders); the stdlib output boundaries
	// (fmt, log, errors.New, os, io, bufio, net) are always sinks.
	KeyflowSinks []string
	// KeyflowSanitizers name the deliberate choke points whose results and
	// effects are considered safe: calls through them cut the taint edge.
	KeyflowSanitizers []string
}

// DefaultConfig returns the repo's invariant configuration.
func DefaultConfig() Config {
	return Config{
		MapRangePkgs: []string{
			"hpnn/internal/tensor", "hpnn/internal/nn", "hpnn/internal/tpu",
			"hpnn/internal/train", "hpnn/internal/core", "hpnn/internal/watermark",
			"hpnn/internal/modelio", "hpnn/internal/lockscheme",
		},
		RandAllowPkgs: []string{"hpnn/internal/rng"},
		TimeAllowPkgs: []string{
			"hpnn/internal/serve", "hpnn/internal/train", "hpnn/internal/cryptobase",
		},
		GoStmtAllowPkgs: []string{
			"hpnn/internal/tensor", "hpnn/internal/serve", "hpnn/internal/train",
		},
		ErrcheckPkgs: []string{
			"hpnn/cmd/...", "hpnn/internal/modelio", "hpnn/internal/serve",
			"hpnn/internal/lockscheme",
		},
		NoAllocSuffixes: []string{"Into", "SliceInto"},
		KeyflowSources: []string{
			// Raw key accessors on the 256-bit model key.
			"hpnn/internal/keys:Key.Bytes",
			"hpnn/internal/keys:Key.Hex",
			"hpnn/internal/keys:Key.Bit",
			// Key-device secrets: derived streams, the PUF-style
			// permutation, and per-column lock bits.
			"hpnn/internal/keys:Device.MaskStream",
			"hpnn/internal/keys:Device.Permutation",
			"hpnn/internal/keys:Device.BitsForColumns",
			"hpnn/internal/keys:Device.ColumnBit",
			// HPCK lock state: factors, engagement flag, recovered bits.
			"hpnn/internal/nn:Lock.Factors",
			"hpnn/internal/nn:Lock.Engaged",
			"hpnn/internal/nn:Lock.Bits",
			"hpnn/internal/core:Model.KeyBits",
		},
		KeyflowSinks: []string{
			"hpnn/internal/serve:writeFrame",
			"hpnn/internal/serve:encodeRequest",
			"hpnn/internal/serve:EncodeRequest",
			"hpnn/internal/serve:EncodeRequestTo",
			"hpnn/internal/serve:EncodeResponse",
		},
		KeyflowSanitizers: []string{
			// Publish is the owner-sanctioned release point of a scheme's
			// public artifact; the contract suite checks it scrubs key bits.
			"hpnn/internal/lockscheme:Scheme.Publish",
			// The checkpoint encryption path: ciphertext is safe to emit.
			"hpnn/internal/cryptobase:EncryptParams",
			// One-way key-identity digest (Mix64 chain), safe to log.
			"hpnn/internal/keys:Device.Fingerprint",
		},
	}
}

// matchPkg reports whether the import path matches any pattern; a pattern
// ending in "/..." matches the prefix and every subpackage.
func matchPkg(path string, patterns []string) bool {
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		} else if path == pat {
			return true
		}
	}
	return false
}

// Diagnostic is one finding: a position, the check that produced it, and a
// human-readable message.
type Diagnostic struct {
	File    string `json:"file"` // module-root-relative path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Check, d.Message)
}

// Check is one named invariant pass over the whole program.
type Check struct {
	Name string
	Doc  string
	Run  func(prog *Program, report func(pos token.Pos, format string, args ...any))
}

// Checks returns the full registry in stable order.
func Checks() []Check {
	return []Check{
		{Name: "noalloc", Doc: "zero-allocation contract for *Into kernels, //hpnn:noalloc functions, and everything they statically call", Run: runNoAlloc},
		{Name: "determinism", Doc: "no map-order iteration in compute packages, no math/rand outside internal/rng, no wall-clock reads outside serve/train/cryptobase", Run: runDeterminism},
		{Name: "gofunc", Doc: "raw go statements only in the tensor worker pool and the serving layer", Run: runGoFunc},
		{Name: "errcheck", Doc: "no silently discarded error returns in cmd/*, modelio, and serve", Run: runErrcheck},
		{Name: "unused", Doc: "every module function, method and type is reached from a main, an init, a package-level initializer or a facade export", Run: runUnused},
		{Name: "keyflow", Doc: "interprocedural taint: key material (device secrets, lock bits, factors) must not reach fmt/log verbs, error construction, wire encoders, or file/net writes except through sanctioned choke points", Run: runKeyflow},
	}
}

// CheckNames returns the registered check names in stable order.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// Lint runs the selected checks (all registered checks when names is empty)
// over the program and returns the surviving diagnostics sorted by position.
// Findings carrying a per-line `//hpnn:allow(<check>) <reason>` suppression
// — on the flagged line or the line directly above it — are dropped. An
// allow that names a selected check but gives no reason still suppresses,
// and is itself reported under that check: a suppression must say why the
// invariant does not apply.
func Lint(prog *Program, names ...string) ([]Diagnostic, error) {
	selected := Checks()
	if len(names) > 0 {
		byName := make(map[string]Check)
		for _, c := range Checks() {
			byName[c.Name] = c
		}
		selected = selected[:0]
		for _, n := range names {
			c, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown check %q (have %s)", n, strings.Join(CheckNames(), ", "))
			}
			selected = append(selected, c)
		}
	}

	allow := collectAllows(prog)
	var diags []Diagnostic
	for _, c := range selected {
		check := c
		check.Run(prog, func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			file := prog.relPath(p.Filename)
			if allow.suppressed(file, p.Line, check.Name) {
				return
			}
			diags = append(diags, Diagnostic{
				File: file, Line: p.Line, Col: p.Column,
				Check: check.Name, Message: fmt.Sprintf(format, args...),
			})
		})
		for _, a := range allow.bare {
			if slices.Contains(a.names, check.Name) || slices.Contains(a.names, "*") {
				diags = append(diags, Diagnostic{
					File: a.file, Line: a.line, Col: a.col, Check: check.Name,
					Message: fmt.Sprintf("//hpnn:allow(%s) requires a reason: //hpnn:allow(%s) <why the invariant does not apply here>", check.Name, check.Name),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// relPath returns filename relative to the module root, slash-separated,
// as diagnostics and suppressions key files.
func (p *Program) relPath(filename string) string {
	if rel, err := filepath.Rel(p.Root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// allowSet maps file -> line -> set of check names suppressed on that line,
// and lists the allows that give no reason.
type allowSet struct {
	lines map[string]map[int]map[string]bool
	bare  []bareAllow
}

// bareAllow is an allow comment with no reason after its check list.
type bareAllow struct {
	file      string
	line, col int
	names     []string
}

// at reports whether a finding at pos would be suppressed for check.
func (a allowSet) at(prog *Program, pos token.Pos, check string) bool {
	p := prog.Fset.Position(pos)
	return a.suppressed(prog.relPath(p.Filename), p.Line, check)
}

// suppressed reports whether a finding on (file, line) is covered by an
// allow comment on the same line or the line immediately above.
func (a allowSet) suppressed(file string, line int, check string) bool {
	lines := a.lines[file]
	if lines == nil {
		return false
	}
	for _, l := range [2]int{line, line - 1} {
		if checks := lines[l]; checks != nil && (checks[check] || checks["*"]) {
			return true
		}
	}
	return false
}

// collectAllows scans every comment in the program for the suppression
// marker `//hpnn:allow(check1,check2) reason`.
func collectAllows(prog *Program) allowSet {
	set := allowSet{lines: make(map[string]map[int]map[string]bool)}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason, ok := parseAllow(c.Text)
					if !ok {
						continue
					}
					p := prog.Fset.Position(c.Pos())
					file := prog.relPath(p.Filename)
					if reason == "" {
						set.bare = append(set.bare, bareAllow{file: file, line: p.Line, col: p.Column, names: names})
					}
					if set.lines[file] == nil {
						set.lines[file] = make(map[int]map[string]bool)
					}
					if set.lines[file][p.Line] == nil {
						set.lines[file][p.Line] = make(map[string]bool)
					}
					for _, n := range names {
						set.lines[file][p.Line][n] = true
					}
				}
			}
		}
	}
	return set
}

// parseAllow extracts the check names and the reason from one
// `//hpnn:allow(a,b) reason` comment.
func parseAllow(text string) (names []string, reason string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//hpnn:allow(")
	if !ok {
		return nil, "", false
	}
	list, reason, ok := strings.Cut(rest, ")")
	if !ok {
		return nil, "", false
	}
	for _, n := range strings.Split(list, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(reason), len(names) > 0
}

// funcHasAnnotation reports whether the function declaration carries the
// given `//hpnn:<marker>` annotation in its doc comment or on the line
// directly above it.
func funcHasAnnotation(prog *Program, f *ast.File, decl *ast.FuncDecl, marker string) bool {
	want := "//hpnn:" + marker
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if text, ok := strings.CutPrefix(c.Text, want); ok && (text == "" || text[0] == ' ') {
				return true
			}
		}
	}
	declLine := prog.Fset.Position(decl.Pos()).Line
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if prog.Fset.Position(c.Pos()).Line != declLine-1 {
				continue
			}
			if text, ok := strings.CutPrefix(c.Text, want); ok && (text == "" || text[0] == ' ') {
				return true
			}
		}
	}
	return false
}
