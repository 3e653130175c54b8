package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// workspaceGetters are the tensor.Workspace methods that hand out (and on a
// sealed workspace may refuse to grow) buffers.
var workspaceGetters = map[string]bool{
	"Get":    true,
	"MatVec": true,
}

// runSeal enforces the sealed-workspace contract lexically: within one
// function body, once Seal() has been called on a Workspace receiver, no
// getter may be called on the same receiver later in that body (unless a
// Reset(), which lifts the seal, intervenes). Seal marks the end of a
// shard's warmup — every buffer the steady state needs must already exist —
// so a getter textually after Seal in the same function is either dead
// warmup code or a latent panic waiting for an unseen key. Receivers are
// compared by expression text (w, s.ws, ...), which is exact for the
// repo's idiom of method-local workspace handles.
func runSeal(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	type event struct {
		recv string
		pos  token.Pos
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				var seals, resets []event
				var gets []struct {
					event
					name string
				}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !isWorkspace(pkg, sel.X) {
						return true
					}
					recv := types.ExprString(sel.X)
					switch name := sel.Sel.Name; {
					case name == "Seal":
						seals = append(seals, event{recv, call.Pos()})
					case name == "Reset":
						resets = append(resets, event{recv, call.Pos()})
					case workspaceGetters[name]:
						gets = append(gets, struct {
							event
							name string
						}{event{recv, call.Pos()}, name})
					}
					return true
				})
				for _, g := range gets {
					for _, s := range seals {
						if s.recv != g.recv || s.pos >= g.pos {
							continue
						}
						lifted := false
						for _, r := range resets {
							if r.recv == g.recv && r.pos > s.pos && r.pos < g.pos {
								lifted = true
								break
							}
						}
						if !lifted {
							report(g.pos, "%s.%s after %s.Seal() in %s: sealed workspaces must have their full working set before Seal",
								g.recv, g.name, g.recv, decl.Name.Name)
							break
						}
					}
				}
			}
		}
	}
}

// isWorkspace reports whether e's type is (a pointer to) a named type
// called Workspace. Matching by name rather than by the concrete
// tensor.Workspace object keeps the check testable against fixture
// packages with their own Workspace type.
func isWorkspace(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Workspace"
}
