package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// runNoAllocLegacy is the pre-callgraph noalloc walker, kept verbatim as
// the oracle for TestNoAllocCallgraphParity: the hand-rolled BFS that
// interleaved edge discovery with the reporting walk, before the check
// moved onto the shared callgraph. It shares checkNoAllocCall with the
// production check, so the parity test exercises exactly what the
// migration changed — call resolution, suppression edge cuts, value-arg
// edges, and BFS attribution order.
func runNoAllocLegacy(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	allows := collectAllows(prog)
	type fnInfo struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	fns := make(map[*types.Func]fnInfo)
	var roots []*types.Func

	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				fns[obj] = fnInfo{pkg: pkg, decl: decl}
				name := decl.Name.Name
				isRoot := false
				for _, suf := range prog.Config.NoAllocSuffixes {
					if strings.HasSuffix(name, suf) {
						isRoot = true
						break
					}
				}
				if !isRoot && funcHasAnnotation(prog, file, decl, "noalloc") {
					isRoot = true
				}
				if isRoot {
					roots = append(roots, obj)
				}
			}
		}
	}

	rootOf := make(map[*types.Func]*types.Func)
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, seen := rootOf[r]; !seen {
			rootOf[r] = r
			queue = append(queue, r)
		}
	}
	enqueue := func(callee, root *types.Func) {
		if _, ok := fns[callee]; !ok {
			return
		}
		if _, seen := rootOf[callee]; seen {
			return
		}
		rootOf[callee] = root
		queue = append(queue, callee)
	}

	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := fns[fn]
		root := rootOf[fn]
		where := fn.Name()
		if root != fn {
			where = fn.Name() + " (on the noalloc path via " + root.Name() + ")"
		}

		panicFed := make(map[ast.Node]bool)

		ast.Inspect(info.decl.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.FuncLit:
				report(node.Pos(), "func literal in %s may capture variables and allocate", where)
				return false
			case *ast.UnaryExpr:
				if node.Op == token.AND {
					if lit, ok := node.X.(*ast.CompositeLit); ok {
						report(node.Pos(), "&%s literal in %s escapes to the heap", litName(lit), where)
						return false
					}
				}
			case *ast.CompositeLit:
				switch info.pkg.Info.TypeOf(node).Underlying().(type) {
				case *types.Slice:
					report(node.Pos(), "slice literal in %s allocates", where)
				case *types.Map:
					report(node.Pos(), "map literal in %s allocates", where)
				}
			case *ast.CallExpr:
				if allows.at(prog, node.Pos(), "noalloc") {
					return false
				}
				if b, ok := calleeObject(info.pkg, node).(*types.Builtin); ok && b.Name() == "panic" {
					for _, arg := range node.Args {
						if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
							if fn, ok := calleeObject(info.pkg, inner).(*types.Func); ok &&
								fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
								panicFed[inner] = true
							}
						}
					}
					return true
				}
				if panicFed[node] {
					return true
				}
				checkNoAllocCall(prog, info.pkg, node, where, report, func(callee *types.Func) {
					enqueue(callee, root)
				})
			}
			return true
		})
	}
}

// TestNoAllocCallgraphParity runs the migrated (callgraph-backed) noalloc
// check and the legacy walker over every fixture and over the repo itself,
// and requires bit-identical diagnostics — message text, position, and
// attribution order ("via <root>") all included.
func TestNoAllocCallgraphParity(t *testing.T) {
	fixtures := []string{
		"noallocdata", "determinismdata", "gofuncdata",
		"errcheckdata", "suppressdata",
		"keyflowdata", "keyflowbaddata",
	}
	for _, fixture := range fixtures {
		t.Run(fixture, func(t *testing.T) {
			prog, err := Load(filepath.Join("testdata", "src", fixture))
			if err != nil {
				t.Fatalf("loading fixture %s: %v", fixture, err)
			}
			compareNoAllocWalkers(t, prog)
		})
	}
	t.Run("self", func(t *testing.T) {
		if testing.Short() {
			t.Skip("self parity loads and type-checks the whole module; skipped in -short mode")
		}
		prog, err := Load(filepath.Join("..", ".."))
		if err != nil {
			t.Fatalf("loading repo: %v", err)
		}
		compareNoAllocWalkers(t, prog)
	})
}

func compareNoAllocWalkers(t *testing.T, prog *Program) {
	t.Helper()
	collect := func(run func(*Program, func(token.Pos, string, ...any))) []string {
		var out []string
		run(prog, func(pos token.Pos, format string, args ...any) {
			p := prog.Fset.Position(pos)
			out = append(out, p.String()+": "+fmt.Sprintf(format, args...))
		})
		return out
	}
	got := collect(runNoAlloc)
	want := collect(runNoAllocLegacy)
	if len(got) != len(want) {
		t.Fatalf("callgraph walker: %d findings, legacy walker: %d\ncallgraph: %v\nlegacy: %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d differs:\ncallgraph: %s\nlegacy:    %s", i, got[i], want[i])
		}
	}
}
