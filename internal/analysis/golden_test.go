package analysis

import (
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// quotedPat extracts the quoted regexes from a `// want "..." "..."`
// comment; both interpreted and backquoted (raw) forms are accepted. A
// `/* want ... */` block comment serves a line whose line comment is the
// subject of the expectation.
var quotedPat = regexp.MustCompile(`"(?:[^"\\]|\\.)*"|` + "`[^`]*`")

// expectation is one `// want "regex"` annotation from a fixture file: a
// diagnostic on that line whose message matches the regex must be produced.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses the fixture program's `// want` comments into
// positional expectations.
func collectWants(t *testing.T, prog *Program) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*"), "*/"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rel, err := filepath.Rel(prog.Root, pos.Filename)
					if err != nil {
						t.Fatalf("relativizing %s: %v", pos.Filename, err)
					}
					quoted := quotedPat.FindAllString(text, -1)
					if len(quoted) == 0 {
						t.Fatalf("%s:%d: want comment with no quoted pattern: %s", rel, pos.Line, text)
					}
					for _, q := range quoted {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %s: %v", rel, pos.Line, q, err)
						}
						wants = append(wants, &expectation{
							file: filepath.ToSlash(rel),
							line: pos.Line,
							re:   regexp.MustCompile(pat),
						})
					}
				}
			}
		}
	}
	return wants
}

// runGolden loads one fixture package, applies the config mutation, runs the
// named checks, and verifies the diagnostics against the fixture's `// want`
// comments exactly: every diagnostic must match a want on its line, and
// every want must be hit.
func runGolden(t *testing.T, fixture string, mutate func(*Config), checks ...string) {
	t.Helper()
	prog, err := Load(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	if mutate != nil {
		mutate(&prog.Config)
	}
	diags, err := Lint(prog, checks...)
	if err != nil {
		t.Fatalf("linting fixture %s: %v", fixture, err)
	}
	wants := collectWants(t, prog)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func TestNoAllocGolden(t *testing.T) {
	runGolden(t, "noallocdata", nil, "noalloc")
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinismdata", func(c *Config) {
		c.MapRangePkgs = []string{"determinismdata"}
	}, "determinism")
}

func TestGoFuncGolden(t *testing.T) {
	runGolden(t, "gofuncdata", nil, "gofunc")
}

func TestErrcheckGolden(t *testing.T) {
	runGolden(t, "errcheckdata", func(c *Config) {
		c.ErrcheckPkgs = []string{"errcheckdata"}
	}, "errcheck")
}

// TestUnusedGolden runs unused on its own fixture only: the other fixtures
// are libraries with no main, so most of their code is unreached by design.
func TestUnusedGolden(t *testing.T) {
	runGolden(t, "unuseddata", nil, "unused")
}

// TestSuppressions runs the three checks the suppress fixture trips; the
// suppressed sites must stay silent and the deliberately unsuppressed (or
// wrongly suppressed) sites must still fire.
func TestSuppressions(t *testing.T) {
	runGolden(t, "suppressdata", nil, "noalloc", "determinism", "gofunc")
}

// TestSelfLint asserts the repo itself is clean under the default
// configuration — the same gate scripts/check.sh enforces.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("self-lint loads and type-checks the whole module; skipped in -short mode")
	}
	prog, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if prog.Module != "hpnn" {
		t.Fatalf("module path = %q, want hpnn", prog.Module)
	}
	// The confidentiality and reachability checks must be part of the
	// default gate, not opt-ins: a clean self-lint here means clean
	// including keyflow and unused.
	names := CheckNames()
	for _, want := range []string{"keyflow", "unused"} {
		if !slices.Contains(names, want) {
			t.Fatalf("%s missing from the default check registry: %v", want, names)
		}
	}
	diags, err := Lint(prog)
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

func TestMatchPkg(t *testing.T) {
	cases := []struct {
		path     string
		patterns []string
		want     bool
	}{
		{"hpnn/internal/tensor", []string{"hpnn/internal/tensor"}, true},
		{"hpnn/internal/tensor", []string{"hpnn/internal/nn"}, false},
		{"hpnn/cmd/hpnn-train", []string{"hpnn/cmd/..."}, true},
		{"hpnn/cmd", []string{"hpnn/cmd/..."}, true},
		{"hpnn/cmdx", []string{"hpnn/cmd/..."}, false},
		{"hpnn/internal/tensor", nil, false},
	}
	for _, c := range cases {
		if got := matchPkg(c.path, c.patterns); got != c.want {
			t.Errorf("matchPkg(%q, %v) = %v, want %v", c.path, c.patterns, got, c.want)
		}
	}
}
