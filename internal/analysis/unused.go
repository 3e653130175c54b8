package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runUnused reports every module function, method and type that no
// production root reaches (DESIGN.md §11). It walks the shared callgraph's
// function bodies from the roots:
//
//   - main and init of every package, and every package-level var or const
//     declaration;
//   - every exported function of the module's root package, and every
//     exported method of a type the root package names (its re-export
//     block is the public API).
//
// An edge is any reference to a module function or method from a reached
// body or initializer: a call, or a function or method value stored or
// passed as an argument. A call through an interface reaches the method of
// that name on every module type reached code instantiates (composite
// literal, new, make, conversion, or a variable or field of the type). A
// method that satisfies an interface declared outside the module (String,
// Error, ServeHTTP, sort.Interface, ...) is reached with its instantiated
// type. Tests are not roots: the loader never reads _test.go files.
// Bodiless declarations (assembly stubs) are never reported.
func runUnused(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	r := &reach{
		prog:    prog,
		graph:   prog.CallGraph(),
		funcs:   make(map[*types.Func]bool),
		types:   make(map[*types.TypeName]bool),
		made:    make(map[*types.Named]bool),
		viaIfc:  make(map[string]bool),
		typeDef: make(map[*types.TypeName]*ast.TypeSpec),
		extIfc:  externalInterfaces(prog),
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if gen, ok := d.(*ast.GenDecl); ok && gen.Tok == token.TYPE {
					for _, spec := range gen.Specs {
						ts := spec.(*ast.TypeSpec)
						r.typeDef[pkg.Info.Defs[ts.Name].(*types.TypeName)] = ts
					}
				}
			}
		}
	}
	r.addRoots()
	r.solve()

	const unreached = "is reached from no program, facade export or initializer"
	for _, node := range r.graph.Nodes {
		if !r.funcs[node.Obj] {
			report(node.Decl.Name.Pos(), "%s %s", describeFunc(node.Obj), unreached)
		}
	}
	for tn, spec := range r.typeDef {
		if !r.types[tn] {
			report(spec.Name.Pos(), "type %s %s", tn.Name(), unreached)
		}
	}
}

// reach is the reachability state of one unused run.
type reach struct {
	prog    *Program
	graph   *CallGraph
	funcs   map[*types.Func]bool              // reached functions and methods
	types   map[*types.TypeName]bool          // reached module type declarations
	made    map[*types.Named]bool             // module types reached code instantiates
	viaIfc  map[string]bool                   // method names called through an interface
	typeDef map[*types.TypeName]*ast.TypeSpec // every package-level module type
	extIfc  map[string][]*types.Interface     // external interfaces by method name
	queue   []func()                          // declarations still to scan
}

// addRoots seeds the walk: every init, every main of a main package, every
// package-level var and const declaration, and the root package's exports.
func (r *reach) addRoots() {
	for _, pkg := range r.prog.Pkgs {
		rootPkg := pkg.Path == r.prog.Module
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				switch decl := d.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
					if !ok {
						continue
					}
					name := decl.Name.Name
					if decl.Recv == nil && (name == "init" || (name == "main" && pkg.Types.Name() == "main") ||
						(rootPkg && token.IsExported(name))) {
						r.useFunc(fn)
					}
				case *ast.GenDecl:
					if decl.Tok == token.VAR || decl.Tok == token.CONST {
						pkg, decl := pkg, decl
						r.queue = append(r.queue, func() { r.scan(pkg, decl) })
					}
				}
			}
		}
		if !rootPkg {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			r.useType(tn)
			named, ok := types.Unalias(tn.Type()).(*types.Named)
			if !ok {
				continue
			}
			r.instantiate(named)
			mset := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < mset.Len(); i++ {
				if fn, ok := mset.At(i).Obj().(*types.Func); ok && fn.Exported() {
					r.useFunc(fn)
				}
			}
		}
	}
}

// solve drains the work queue, then reaches the methods of instantiated
// types that an interface call or an external interface selects, until
// nothing new is reached.
func (r *reach) solve() {
	for {
		for len(r.queue) > 0 {
			next := r.queue[0]
			r.queue = r.queue[1:]
			next()
		}
		for named := range r.made {
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !r.funcs[m] && (r.viaIfc[m.Name()] || r.satisfiesExternal(named, m.Name())) {
					r.useFunc(m)
				}
			}
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// useFunc marks a module function reached and queues its body.
func (r *reach) useFunc(fn *types.Func) {
	fn = fn.Origin()
	if r.funcs[fn] {
		return
	}
	r.funcs[fn] = true
	if node := r.graph.Node(fn); node != nil {
		r.queue = append(r.queue, func() { r.scan(node.Pkg, node.Decl) })
	}
}

// useType marks a module type declaration reached and queues its spec, so
// the types its fields and embedded interfaces name are reached too.
func (r *reach) useType(tn *types.TypeName) {
	spec, ok := r.typeDef[tn]
	if !ok || r.types[tn] {
		return
	}
	r.types[tn] = true
	r.queue = append(r.queue, func() { r.scan(r.prog.byPath[tn.Pkg().Path()], spec) })
}

// instantiate records that values of t exist, which makes the methods of
// every module type inside it candidates for interface dispatch.
func (r *reach) instantiate(t types.Type) {
	switch t := types.Unalias(t).(type) {
	case *types.Map:
		r.instantiate(t.Key())
		r.instantiate(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		r.instantiate(t.Elem())
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			r.instantiate(t.Field(i).Type())
		}
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			r.instantiate(t.TypeArgs().At(i))
		}
		named := t.Origin()
		if _, ok := r.typeDef[named.Obj()]; !ok || r.made[named] {
			return
		}
		r.made[named] = true
		r.useType(named.Obj())
		r.instantiate(named.Underlying())
	}
}

// scan records every reference inside one reached declaration: functions
// and methods by use, interface method names, types named, and types
// instantiated.
func (r *reach) scan(pkg *Package, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch obj := pkg.Info.Uses[n].(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					r.viaIfc[obj.Name()] = true
				} else {
					r.useFunc(obj)
				}
			case *types.TypeName:
				r.useType(obj)
			}
			if v, ok := pkg.Info.Defs[n].(*types.Var); ok && !v.IsField() {
				r.instantiate(v.Type())
			}
		case *ast.CompositeLit:
			r.instantiate(pkg.Info.TypeOf(n))
		case *ast.CallExpr:
			if tv, ok := pkg.Info.Types[n.Fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
				r.instantiate(pkg.Info.TypeOf(n))
			}
		}
		return true
	})
}

// satisfiesExternal reports whether the method name belongs to an interface
// declared outside the module that the named type (or its pointer)
// implements.
func (r *reach) satisfiesExternal(named *types.Named, method string) bool {
	for _, ifc := range r.extIfc[method] {
		if types.Implements(named, ifc) || types.Implements(types.NewPointer(named), ifc) {
			return true
		}
	}
	return false
}

// externalInterfaces indexes, by method name, every exported interface of
// every package outside the module that the module imports, directly or
// through other imports, plus the predeclared error.
func externalInterfaces(prog *Program) map[string][]*types.Interface {
	index := make(map[string][]*types.Interface)
	add := func(ifc *types.Interface) {
		for i := 0; i < ifc.NumMethods(); i++ {
			name := ifc.Method(i).Name()
			index[name] = append(index[name], ifc)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if prog.byPath[p.Path()] != nil {
			return
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			if ifc, ok := tn.Type().Underlying().(*types.Interface); ok && ifc.IsMethodSet() {
				add(ifc)
			}
		}
	}
	for _, pkg := range prog.Pkgs {
		visit(pkg.Types)
	}
	return index
}

// describeFunc names a function or method the way a reader looks for it.
func describeFunc(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "func " + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return "method " + t.(*types.Named).Obj().Name() + "." + fn.Name()
}
