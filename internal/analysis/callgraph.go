package analysis

import (
	"go/ast"
	"go/types"
)

// The shared static callgraph (DESIGN.md §16). The interprocedural
// clients — the noalloc transitive-contract walk, the keyflow taint engine
// and the unused reachability walk — consume the same graph, so call
// resolution has exactly one implementation: direct identifiers,
// package-qualified functions, and concrete method selections resolve;
// calls through interfaces or stored function values do not (each client
// documents how it compensates).
//
// The graph is deliberately check-agnostic: every call expression in every
// function body is recorded, in traversal order, with nothing filtered.
// Suppression comments (//hpnn:allow edge cuts, //hpnn:keyok taint cuts)
// are per-check policy, applied by the client over the recorded positions.

// CallSite is one call expression inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the resolved called object: a *types.Func for direct and
	// concrete-method calls (module or external), a *types.Builtin for
	// builtins, nil for indirect calls through function values. Interface
	// method calls resolve to the interface's *types.Func (no body).
	Callee types.Object
	// ValueArgs lists module-level functions appearing by value in the
	// argument list — kernels handed to the worker-pool dispatchers run on
	// behalf of the caller, so flow-sensitive clients treat them as edges.
	ValueArgs []*types.Func
	// IsConversion marks a type conversion, which is not a call at all.
	IsConversion bool
}

// FuncNode is one module function with a body: its syntax, its package
// context, and every call site inside it.
type FuncNode struct {
	Obj   *types.Func
	Pkg   *Package
	Decl  *ast.FuncDecl
	File  *ast.File
	Sites []*CallSite
}

// CallGraph indexes every module function with a body. Nodes holds stable
// program order: packages sorted by import path, files in build-list order,
// declarations in source order — the order every deterministic whole-program
// walk in this package uses.
type CallGraph struct {
	Nodes []*FuncNode
	byObj map[*types.Func]*FuncNode
}

// Node returns the graph node for a function object, or nil when the
// function is outside the module or has no body (assembly stubs).
func (g *CallGraph) Node(fn *types.Func) *FuncNode { return g.byObj[fn] }

// CallGraph builds (once) and returns the program's static callgraph.
func (p *Program) CallGraph() *CallGraph {
	if p.callgraph == nil {
		p.callgraph = buildCallGraph(p)
	}
	return p.callgraph
}

func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{byObj: make(map[*types.Func]*FuncNode)}
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
				node := &FuncNode{Obj: obj, Pkg: pkg, Decl: decl, File: file}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					node.Sites = append(node.Sites, newCallSite(pkg, call))
					return true
				})
				g.Nodes = append(g.Nodes, node)
				g.byObj[obj] = node
			}
		}
	}
	return g
}

// newCallSite resolves one call expression: callee object, by-value
// function arguments, and whether the "call" is really a conversion.
func newCallSite(pkg *Package, call *ast.CallExpr) *CallSite {
	site := &CallSite{Call: call}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		site.IsConversion = true
		return site
	}
	site.Callee = calleeObject(pkg, call)
	for _, arg := range call.Args {
		if fn, ok := identObject(pkg, arg).(*types.Func); ok {
			site.ValueArgs = append(site.ValueArgs, fn)
		}
	}
	return site
}

// CalleeFunc returns the site's callee as a *types.Func, or nil.
func (s *CallSite) CalleeFunc() *types.Func {
	fn, _ := s.Callee.(*types.Func)
	return fn
}

// enclosedBy reports whether the site's position falls inside the given
// call expression's source span (the site itself included) — how a
// suppression on an outer call cuts every edge in its subtree, matching the
// legacy walker's skipped-subtree semantics.
func (s *CallSite) enclosedBy(outer *ast.CallExpr) bool {
	return outer.Pos() <= s.Call.Pos() && s.Call.Pos() <= outer.End()
}
