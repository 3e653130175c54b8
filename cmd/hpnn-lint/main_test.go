package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintCLI builds the binary and drives its exit-code contract: 0 on the
// clean repo, 1 with file:line diagnostics on a dirty module, and valid
// JSON under -json. -list must name the default-on checks.
func TestLintCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hpnn-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building hpnn-lint: %v\n%s", err, out)
	}

	list, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("hpnn-lint -list: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(list), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			listed[fields[0]] = true
		}
	}
	for _, want := range []string{"keyflow", "unused"} {
		if !listed[want] {
			t.Errorf("-list does not name %s:\n%s", want, list)
		}
	}

	// The repo itself must be clean: exit 0, no output.
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	clean := exec.Command(bin, "./...")
	clean.Dir = repoRoot
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("expected exit 0 on the repo, got %v\n%s", err, out)
	}

	// A module holding the noalloc golden fixture must fail with positioned
	// diagnostics. The fixture is copied out of testdata so the loader (which
	// skips testdata by design) picks it up as a regular package.
	dirty := filepath.Join(dir, "dirtymod")
	if err := os.MkdirAll(dirty, 0o755); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(filepath.Join(repoRoot, "internal", "analysis", "testdata", "src", "noallocdata", "noalloc.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirty, "noalloc.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirty, "go.mod"), []byte("module dirtymod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	run := exec.Command(bin, "./...")
	run.Dir = dirty
	out, err := run.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1 on the dirty module, got %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "noalloc.go:18:") || !strings.Contains(text, "[noalloc] make in CopyInto allocates") {
		t.Errorf("missing positioned diagnostic in output:\n%s", text)
	}

	// -json must emit a decodable array carrying the same findings.
	jrun := exec.Command(bin, "-json", "./...")
	jrun.Dir = dirty
	jout, err := jrun.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("expected exit 1 from -json run, got %v", err)
	}
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(jout, &diags); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, jout)
	}
	if len(diags) == 0 {
		t.Fatal("-json reported no diagnostics on the dirty module")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete JSON diagnostic: %+v", d)
		}
	}

	// -checks restricts the run: the fixture has no go statement, so it is
	// clean under gofunc alone.
	gofuncOnly := exec.Command(bin, "-checks", "gofunc", "./...")
	gofuncOnly.Dir = dirty
	if out, err := gofuncOnly.CombinedOutput(); err != nil {
		t.Fatalf("expected exit 0 with -checks gofunc, got %v\n%s", err, out)
	}
}
