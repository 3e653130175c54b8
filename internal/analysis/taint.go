package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Interprocedural forward taint propagation over the shared callgraph
// (DESIGN.md §16). The engine tracks *material-preserving* flows of
// configured source values — copies, conversions, slicing/indexing, string
// concatenation, append/copy, formatting, and flows through module function
// calls and returns — and reports when tainted material reaches a sink.
//
// Deliberately NOT tracked, because the lock transform itself is the
// paper's protection rather than a leak:
//
//   - arithmetic and bitwise binary expressions (factor multiplication in
//     the datapath, keystream XOR in the weight ciphers);
//   - implicit flows (branching on a key bit taints nothing);
//   - whole-struct taint from a tainted field: a struct stores per-field
//     taint inside one function, and a struct value crossing a call
//     boundary carries only its own object-level taint. Field reads are
//     re-seeded at every site by the source patterns, so cross-function
//     field flows are still caught where the material is read.
//
// Sensitivity, sized to the patterns this repo uses:
//
//   - arg sensitivity: function summaries record, per parameter (receiver
//     = slot 0), which results it flows to and which sinks it reaches, so
//     a leak through helper chains is reported at the call site where the
//     material enters the chain, with the chain in the message;
//   - field sensitivity: assignments through a selector taint only the
//     (root object, field) pair, never the whole struct;
//   - return sensitivity: multi-result functions carry per-result taint.
//
// Summaries reach a fixed point by iterating whole-program passes in
// stable callgraph order; the lattice (source bit + parameter bitset per
// result, merged sink records) is finite, so the loop terminates.

// taintVal is the lattice value for one expression or variable: whether it
// carries configured source material (with the first-seen origin for the
// diagnostic), and which enclosing-function parameters it may alias.
type taintVal struct {
	src    bool
	origin string
	params uint64
}

func (t taintVal) any() bool { return t.src || t.params != 0 }

func (t taintVal) or(o taintVal) taintVal {
	out := taintVal{src: t.src || o.src, origin: t.origin, params: t.params | o.params}
	if out.origin == "" {
		out.origin = o.origin
	}
	return out
}

// member names one function, method, or struct field in "pkg:Name" /
// "pkg:Type.Member" pattern form.
type member struct {
	pkg, typ, name string
}

func (m member) String() string {
	base := m.pkg
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if m.typ != "" {
		return base + "." + m.typ + "." + m.name
	}
	return base + "." + m.name
}

// parseMember parses a config pattern: "import/path:Func" or
// "import/path:Type.Member".
func parseMember(pat string) (member, error) {
	pkg, rest, ok := strings.Cut(pat, ":")
	if !ok || pkg == "" || rest == "" {
		return member{}, fmt.Errorf("analysis: keyflow pattern %q (want pkg:Func or pkg:Type.Member)", pat)
	}
	m := member{pkg: pkg, name: rest}
	if typ, name, ok := strings.Cut(rest, "."); ok {
		m.typ, m.name = typ, name
	}
	return m, nil
}

func memberSet(pats []string) (map[member]bool, error) {
	set := make(map[member]bool, len(pats))
	for _, p := range pats {
		m, err := parseMember(p)
		if err != nil {
			return nil, err
		}
		set[m] = true
	}
	return set, nil
}

// funcMember describes a *types.Func (package function, concrete method,
// or interface method) in member form.
func funcMember(fn *types.Func) member {
	m := member{name: fn.Name()}
	if fn.Pkg() != nil {
		m.pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		m.typ = namedTypeName(sig.Recv().Type())
	}
	return m
}

func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// sinkRecord is one way a function's parameters reach a sink: the bitset
// of leaking parameter slots, the sink description, and the call chain
// from this function down to the sink.
type sinkRecord struct {
	params uint64
	desc   string
	chain  string // " → "-joined callee names, "" when the sink is direct
}

// summary is one function's interprocedural behavior: per-result taint and
// the sinks its parameters reach. Summaries only grow, so the fixed point
// is well defined.
type summary struct {
	rets  []taintVal
	sinks map[string]*sinkRecord // keyed by sink desc
}

func newSummary(fn *types.Func) *summary {
	n := 0
	if sig, ok := fn.Type().(*types.Signature); ok {
		n = sig.Results().Len()
	}
	return &summary{rets: make([]taintVal, n), sinks: make(map[string]*sinkRecord)}
}

// taintEngine is the whole-program analysis state shared across passes.
type taintEngine struct {
	prog      *Program
	cg        *CallGraph
	sources   map[member]bool
	sinks     map[member]bool
	sans      map[member]bool
	keyok     map[string]map[int]string // file -> line -> reason
	summaries map[*types.Func]*summary
	changed   bool
	reporting bool
	reported  map[string]bool
	report    func(pos token.Pos, format string, args ...any)
}

func newTaintEngine(prog *Program, report func(pos token.Pos, format string, args ...any)) (*taintEngine, error) {
	sources, err := memberSet(prog.Config.KeyflowSources)
	if err != nil {
		return nil, err
	}
	sinks, err := memberSet(prog.Config.KeyflowSinks)
	if err != nil {
		return nil, err
	}
	sans, err := memberSet(prog.Config.KeyflowSanitizers)
	if err != nil {
		return nil, err
	}
	eng := &taintEngine{
		prog:      prog,
		cg:        prog.CallGraph(),
		sources:   sources,
		sinks:     sinks,
		sans:      sans,
		summaries: make(map[*types.Func]*summary),
		reported:  make(map[string]bool),
		report:    report,
	}
	eng.collectKeyok()
	return eng, nil
}

// maxTaintPasses bounds the whole-program fixed-point loop; the summary
// lattice converges in two or three passes on this module, the cap only
// guards against pathological inputs.
const maxTaintPasses = 16

func (e *taintEngine) run() {
	for pass := 0; pass < maxTaintPasses; pass++ {
		e.changed = false
		for _, node := range e.cg.Nodes {
			e.analyze(node)
		}
		if !e.changed {
			break
		}
	}
	e.reporting = true
	for _, node := range e.cg.Nodes {
		e.analyze(node)
	}
}

func (e *taintEngine) reportOnce(pos token.Pos, format string, args ...any) {
	if !e.reporting {
		return
	}
	key := fmt.Sprintf("%d|%s", pos, fmt.Sprintf(format, args...))
	if e.reported[key] {
		return
	}
	e.reported[key] = true
	e.report(pos, format, args...)
}

// collectKeyok gathers `//hpnn:keyok(reason)` comments: the sanctioned
// key-material flows. A keyok on a line (or the line above, mirroring
// //hpnn:allow scoping) cuts the taint edge at every call and source read
// on that line. The reason is mandatory — an empty one is itself reported.
func (e *taintEngine) collectKeyok() {
	e.keyok = make(map[string]map[int]string)
	for _, pkg := range e.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//hpnn:keyok(")
					if !ok {
						continue
					}
					reason, _, ok := strings.Cut(rest, ")")
					if !ok {
						reason = ""
					}
					p := e.prog.Fset.Position(c.Pos())
					file := e.prog.relPath(p.Filename)
					if e.keyok[file] == nil {
						e.keyok[file] = make(map[int]string)
					}
					e.keyok[file][p.Line] = strings.TrimSpace(reason)
				}
			}
		}
	}
}

// keyokAt reports whether a keyok suppression covers pos (same line or the
// line above), and the declared reason.
func (e *taintEngine) keyokAt(pos token.Pos) (string, bool) {
	p := e.prog.Fset.Position(pos)
	lines := e.keyok[e.prog.relPath(p.Filename)]
	if lines == nil {
		return "", false
	}
	for _, l := range [2]int{p.Line, p.Line - 1} {
		if reason, ok := lines[l]; ok {
			return reason, true
		}
	}
	return "", false
}

// reportBadKeyok flags every keyok comment with an empty reason: the
// suppression grammar requires one, so sanctioned flows stay auditable.
func (e *taintEngine) reportBadKeyok() {
	for _, pkg := range e.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//hpnn:keyok(")
					if !ok {
						continue
					}
					reason, _, ok := strings.Cut(rest, ")")
					if !ok || strings.TrimSpace(reason) == "" {
						e.report(c.Pos(), "//hpnn:keyok requires a reason: //hpnn:keyok(<why this flow is sanctioned>)")
					}
				}
			}
		}
	}
}

// fieldKey identifies one field of one local root object for
// field-sensitive taint.
type fieldKey struct {
	root  types.Object
	field string
}

// fnTaint is the per-function analysis state for one pass over one body.
type fnTaint struct {
	eng      *taintEngine
	node     *FuncNode
	vars     map[types.Object]taintVal
	fields   map[fieldKey]taintVal
	paramBit map[types.Object]int
	results  []types.Object // named results, nil entries for unnamed
	panicFed map[*ast.CallExpr]bool
	sum      *summary
	dirty    bool
}

// analyze runs one pass over one function: seeds parameter bits, walks the
// body to a local fixed point, and merges the discovered summary into the
// engine.
func (e *taintEngine) analyze(node *FuncNode) {
	ft := &fnTaint{
		eng:      e,
		node:     node,
		vars:     make(map[types.Object]taintVal),
		fields:   make(map[fieldKey]taintVal),
		paramBit: make(map[types.Object]int),
		sum:      newSummary(node.Obj),
	}
	sig := node.Obj.Type().(*types.Signature)
	bit := 0
	if recv := sig.Recv(); recv != nil {
		ft.paramBit[recv] = bit
		bit++
	} else {
		bit++ // slot 0 stays reserved so methods and functions share the layout
	}
	for i := 0; i < sig.Params().Len(); i++ {
		ft.paramBit[sig.Params().At(i)] = bit
		bit++
	}
	for i := 0; i < sig.Results().Len(); i++ {
		r := sig.Results().At(i)
		if r.Name() != "" {
			ft.results = append(ft.results, r)
		} else {
			ft.results = append(ft.results, nil)
		}
	}

	// A sink call whose result feeds panic(...) directly formats a crash
	// message, not an output — the same cold-path exemption noalloc grants
	// panic-fed fmt calls.
	ft.panicFed = make(map[*ast.CallExpr]bool)
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := calleeObject(node.Pkg, call).(*types.Builtin); ok && b.Name() == "panic" {
			for _, arg := range call.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
					ft.panicFed[inner] = true
				}
			}
		}
		return true
	})

	// Local fixed point: loops can feed taint backwards through the body.
	for i := 0; i < 4; i++ {
		ft.dirty = false
		ast.Inspect(node.Decl.Body, ft.visit)
		if !ft.dirty {
			break
		}
	}
	// Named results carry their final taint into the summary.
	for i, r := range ft.results {
		if r != nil {
			ft.mergeRet(i, ft.vars[r])
		}
	}
	e.mergeSummary(node.Obj, ft.sum)
}

func (e *taintEngine) mergeSummary(fn *types.Func, got *summary) {
	cur, ok := e.summaries[fn]
	if !ok {
		e.summaries[fn] = got
		for _, r := range got.rets {
			if r.any() {
				e.changed = true
				break
			}
		}
		if len(got.sinks) > 0 {
			e.changed = true
		}
		return
	}
	for i := range got.rets {
		merged := cur.rets[i].or(got.rets[i])
		if merged != cur.rets[i] {
			cur.rets[i] = merged
			e.changed = true
		}
	}
	for k, sk := range got.sinks {
		if have, ok := cur.sinks[k]; ok {
			if have.params|sk.params != have.params {
				have.params |= sk.params
				e.changed = true
			}
		} else {
			cur.sinks[k] = sk
			e.changed = true
		}
	}
}

func (ft *fnTaint) mergeRet(i int, t taintVal) {
	if i < len(ft.sum.rets) && t.any() {
		merged := ft.sum.rets[i].or(t)
		if merged != ft.sum.rets[i] {
			ft.sum.rets[i] = merged
			ft.dirty = true
		}
	}
}

func (ft *fnTaint) visit(n ast.Node) bool {
	switch node := n.(type) {
	case *ast.AssignStmt:
		ft.assign(node)
	case *ast.ValueSpec:
		ft.valueSpec(node)
	case *ast.RangeStmt:
		if t := ft.tv(node.X); t.any() && node.Value != nil {
			ft.setLV(node.Value, t)
		}
	case *ast.ReturnStmt:
		ft.ret(node)
	case *ast.CallExpr:
		ft.call(node)
	}
	return true
}

func (ft *fnTaint) assign(a *ast.AssignStmt) {
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		for i, t := range ft.tvMulti(a.Rhs[0], len(a.Lhs)) {
			ft.setLV(a.Lhs[i], t)
		}
		return
	}
	for i, r := range a.Rhs {
		if i >= len(a.Lhs) {
			break
		}
		t := ft.tv(r)
		if a.Tok == token.ADD_ASSIGN {
			// Only string concatenation preserves material among the
			// op-assigns; arithmetic accumulation does not.
			if !isStringy(ft.node.Pkg.Info.TypeOf(a.Lhs[i])) {
				continue
			}
		} else if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
			continue
		}
		ft.setLV(a.Lhs[i], t)
	}
}

func (ft *fnTaint) valueSpec(s *ast.ValueSpec) {
	if len(s.Values) == 1 && len(s.Names) > 1 {
		for i, t := range ft.tvMulti(s.Values[0], len(s.Names)) {
			ft.setLV(s.Names[i], t)
		}
		return
	}
	for i, v := range s.Values {
		if i < len(s.Names) {
			ft.setLV(s.Names[i], ft.tv(v))
		}
	}
}

func (ft *fnTaint) ret(r *ast.ReturnStmt) {
	switch {
	case len(r.Results) == 0:
		// bare return: named results merged after the walk
	case len(r.Results) == len(ft.sum.rets):
		for i, expr := range r.Results {
			ft.mergeRet(i, ft.tv(expr))
		}
	case len(r.Results) == 1:
		for i, t := range ft.tvMulti(r.Results[0], len(ft.sum.rets)) {
			ft.mergeRet(i, t)
		}
	}
}

// tvMulti evaluates a single expression producing n values (multi-result
// call, type assertion, map read with ok).
func (ft *fnTaint) tvMulti(e ast.Expr, n int) []taintVal {
	out := make([]taintVal, n)
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		res := ft.call(x)
		copy(out, res)
	case *ast.TypeAssertExpr:
		out[0] = ft.tv(x.X)
	case *ast.IndexExpr:
		out[0] = ft.tv(x)
	case *ast.UnaryExpr: // <-ch with ok
	}
	return out
}

// setLV propagates taint into an lvalue. Selector targets taint only the
// (root, field) pair; index/star targets taint the whole container.
func (ft *fnTaint) setLV(lhs ast.Expr, t taintVal) {
	if !t.any() {
		return
	}
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := ft.node.Pkg.Info.Defs[x]
		if obj == nil {
			obj = ft.node.Pkg.Info.Uses[x]
		}
		if obj == nil {
			return
		}
		ft.setVar(obj, t)
	case *ast.SelectorExpr:
		if root := rootObject(ft.node.Pkg, x.X); root != nil {
			key := fieldKey{root: root, field: x.Sel.Name}
			merged := ft.fields[key].or(t)
			if merged != ft.fields[key] {
				ft.fields[key] = merged
				ft.dirty = true
			}
		}
	case *ast.IndexExpr:
		ft.setLV(x.X, t)
	case *ast.StarExpr:
		ft.setLV(x.X, t)
	case *ast.SliceExpr:
		ft.setLV(x.X, t)
	}
}

func (ft *fnTaint) setVar(obj types.Object, t taintVal) {
	merged := ft.vars[obj].or(t)
	if merged != ft.vars[obj] {
		ft.vars[obj] = merged
		ft.dirty = true
	}
}

// rootObject finds the leftmost identifier object of a selector chain.
func rootObject(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return pkg.Info.Uses[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			return nil
		default:
			return nil
		}
	}
}

// tv computes the taint of one expression, evaluating calls (and their
// sink effects) along the way.
func (ft *fnTaint) tv(e ast.Expr) taintVal {
	info := ft.node.Pkg.Info
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if obj == nil {
			return taintVal{}
		}
		t := ft.vars[obj]
		if bit, ok := ft.paramBit[obj]; ok {
			t = t.or(taintVal{params: 1 << uint(bit)})
		}
		return t
	case *ast.SelectorExpr:
		return ft.selector(x)
	case *ast.ParenExpr:
		return ft.tv(x.X)
	case *ast.IndexExpr:
		return ft.tv(x.X)
	case *ast.SliceExpr:
		return ft.tv(x.X)
	case *ast.StarExpr:
		return ft.tv(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return ft.tv(x.X)
		}
		return taintVal{}
	case *ast.BinaryExpr:
		// String concatenation is the one material-preserving binary op;
		// arithmetic/bitwise results (lock multiply, keystream XOR) are the
		// protection itself, not a leak.
		if x.Op == token.ADD && isStringy(info.TypeOf(x)) {
			return ft.tv(x.X).or(ft.tv(x.Y))
		}
		return taintVal{}
	case *ast.CompositeLit:
		var t taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.or(ft.tv(el))
		}
		return t
	case *ast.CallExpr:
		res := ft.call(x)
		if len(res) > 0 {
			return res[0]
		}
		return taintVal{}
	case *ast.TypeAssertExpr:
		return ft.tv(x.X)
	}
	return taintVal{}
}

// selector evaluates a field or method-value selection: configured source
// fields seed taint (unless keyok'd); otherwise the field's own taint and
// the root object's taint both count.
func (ft *fnTaint) selector(se *ast.SelectorExpr) taintVal {
	info := ft.node.Pkg.Info
	sel, ok := info.Selections[se]
	if !ok {
		// Package-qualified identifier: globals are not tracked.
		return taintVal{}
	}
	if sel.Kind() == types.FieldVal {
		if v, ok := sel.Obj().(*types.Var); ok && v.Pkg() != nil {
			m := member{pkg: v.Pkg().Path(), typ: namedTypeName(sel.Recv()), name: v.Name()}
			if ft.eng.sources[m] {
				if _, cut := ft.eng.keyokAt(se.Pos()); cut {
					return taintVal{}
				}
				return taintVal{src: true, origin: m.String()}
			}
		}
		var t taintVal
		if root := rootObject(ft.node.Pkg, se.X); root != nil {
			t = ft.fields[fieldKey{root: root, field: se.Sel.Name}]
		}
		return t.or(ft.tv(se.X))
	}
	return taintVal{}
}

// receiverExpr returns the receiver expression of a method call, or nil.
func receiverExpr(pkg *Package, call *ast.CallExpr) ast.Expr {
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkg.Info.Selections[se] != nil {
			return se.X
		}
	}
	return nil
}

// call evaluates one call expression: source seeding, sanitizer and keyok
// cuts, sink hits (direct and through callee summaries), and taint
// propagation into the results.
func (ft *fnTaint) call(call *ast.CallExpr) []taintVal {
	info := ft.node.Pkg.Info
	nres := resultCount(info, call)
	out := make([]taintVal, nres)

	// Conversions preserve material exactly: string(b), []byte(s).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			out[0] = ft.tv(call.Args[0])
		}
		return out
	}

	obj := calleeObject(ft.node.Pkg, call)
	if b, ok := obj.(*types.Builtin); ok {
		return ft.builtin(b, call, out)
	}

	// Argument taint vector aligned with summary parameter slots:
	// receiver at 0, parameters from 1, variadic args folded into the
	// last slot.
	recv := receiverExpr(ft.node.Pkg, call)
	fn, _ := obj.(*types.Func)
	argT := ft.argTaints(fn, recv, call)

	// A keyok on the call line is the sanctioned-flow escape hatch: it
	// cuts the taint edge entirely — results are clean, sinks unreported.
	if _, ok := ft.eng.keyokAt(call.Pos()); ok {
		return out
	}

	if fn != nil {
		m := funcMember(fn)
		if ft.eng.sources[m] {
			for i := range out {
				out[i] = taintVal{src: true, origin: m.String()}
			}
			return out
		}
		if ft.eng.sans[m] {
			return out
		}
		if desc, ok := ft.sinkDesc(fn, m); ok {
			if !ft.panicFed[call] {
				ft.hitSink(call.Pos(), desc, "", argT)
			}
			return out
		}
		if ft.eng.cg.Node(fn) != nil {
			return ft.applySummary(call, fn, argT, out)
		}
		// External (stdlib) non-sink call: results carry the material when
		// their type can hold it; a method mutating its receiver is
		// approximated by tainting the receiver.
		merged := mergeTaints(argT)
		if merged.any() {
			if recv != nil {
				ft.setLV(recv, merged)
			}
			ft.taintResults(call, out, merged)
		}
		return out
	}

	// Indirect call through a function value: propagate conservatively.
	merged := mergeTaints(argT)
	if merged.any() {
		ft.taintResults(call, out, merged)
	}
	return out
}

func mergeTaints(ts []taintVal) taintVal {
	var out taintVal
	for _, t := range ts {
		out = out.or(t)
	}
	return out
}

// argTaints evaluates the receiver and arguments into summary-aligned
// slots (receiver 0, params 1.., variadic folded into the last).
func (ft *fnTaint) argTaints(fn *types.Func, recv ast.Expr, call *ast.CallExpr) []taintVal {
	nparams := len(call.Args)
	variadic := false
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok {
			nparams = sig.Params().Len()
			variadic = sig.Variadic()
		}
	}
	out := make([]taintVal, 1+maxInt(nparams, len(call.Args)))
	if recv != nil {
		out[0] = ft.tv(recv)
	}
	for i, arg := range call.Args {
		slot := i + 1
		if variadic && i >= nparams-1 {
			slot = nparams // fold every variadic arg into the last slot
		}
		if slot < len(out) {
			out[slot] = out[slot].or(ft.tv(arg))
		}
	}
	return out[:1+nparams]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (ft *fnTaint) builtin(b *types.Builtin, call *ast.CallExpr, out []taintVal) []taintVal {
	switch b.Name() {
	case "append":
		var t taintVal
		for _, arg := range call.Args {
			t = t.or(ft.tv(arg))
		}
		out[0] = t
	case "copy":
		if len(call.Args) == 2 {
			if t := ft.tv(call.Args[1]); t.any() {
				ft.setLV(call.Args[0], t)
			}
		}
	case "len", "cap", "make", "new", "min", "max", "delete", "clear", "panic", "print", "println":
		// len/cap expose only size; the rest either allocate fresh memory
		// or are cold paths the check keeps out of scope.
	default:
		// Nested calls in the arguments were already evaluated by tv.
	}
	return out
}

// sinkDesc decides whether a resolved callee is a sink: a configured
// module sink (the serve wire encoders) or one of the built-in output
// boundaries — fmt/log verbs, error construction, os/file and buffered
// writes, io writers, and anything in net.
func (ft *fnTaint) sinkDesc(fn *types.Func, m member) (string, bool) {
	if ft.eng.sinks[m] {
		return m.String(), true
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	switch path := pkg.Path(); {
	case path == "fmt" || path == "log":
		return path + "." + fn.Name(), true
	case path == "errors" && (fn.Name() == "New" || fn.Name() == "Join"):
		return "errors." + fn.Name(), true
	case path == "os" || path == "bufio" || path == "io":
		return m.String(), true
	case path == "net" || strings.HasPrefix(path, "net/"):
		return m.String(), true
	}
	return "", false
}

// hitSink records tainted material reaching a sink: source taint becomes a
// diagnostic at pos, parameter taint becomes a summary entry so callers
// report at their own call sites.
func (ft *fnTaint) hitSink(pos token.Pos, desc, chain string, argT []taintVal) {
	merged := mergeTaints(argT)
	if !merged.any() {
		return
	}
	if merged.src {
		if chain == "" {
			ft.eng.reportOnce(pos, "key material from %s reaches %s", merged.origin, desc)
		} else {
			ft.eng.reportOnce(pos, "key material from %s reaches %s (via %s)", merged.origin, desc, chain)
		}
	}
	if merged.params != 0 {
		// One record per sink description, keeping the first-seen (shortest,
		// since passes run in stable program order) chain: keying on the
		// chain too would mint a longer key every pass around a recursive
		// cycle and the fixed point would never close.
		if have, ok := ft.sum.sinks[desc]; ok {
			if have.params|merged.params != have.params {
				have.params |= merged.params
				ft.dirty = true
			}
		} else {
			ft.sum.sinks[desc] = &sinkRecord{params: merged.params, desc: desc, chain: chain}
			ft.dirty = true
		}
	}
}

// applySummary folds a module callee's summary into the call site:
// parameter→result flows substitute the argument taints, and
// parameter→sink records become findings here (source taint) or summary
// entries one level up (parameter taint), with the callee prepended to the
// chain.
func (ft *fnTaint) applySummary(call *ast.CallExpr, fn *types.Func, argT []taintVal, out []taintVal) []taintVal {
	sum := ft.eng.summaries[fn]
	if sum == nil {
		return out
	}
	for i := range out {
		if i >= len(sum.rets) {
			break
		}
		r := sum.rets[i]
		if r.src {
			out[i] = out[i].or(taintVal{src: true, origin: r.origin})
		}
		for bit := 0; bit < len(argT); bit++ {
			if r.params&(1<<uint(bit)) != 0 {
				out[i] = out[i].or(argT[bit])
			}
		}
	}
	descs := make([]string, 0, len(sum.sinks))
	for desc := range sum.sinks {
		descs = append(descs, desc)
	}
	sort.Strings(descs)
	for _, desc := range descs {
		sk := sum.sinks[desc]
		var merged taintVal
		for bit := 0; bit < len(argT); bit++ {
			if sk.params&(1<<uint(bit)) != 0 {
				merged = merged.or(argT[bit])
			}
		}
		if !merged.any() {
			continue
		}
		chain := fn.Name()
		if sk.chain != "" {
			chain += " → " + sk.chain
		}
		ft.hitSink(call.Pos(), sk.desc, chain, []taintVal{merged})
	}
	return out
}

// taintResults taints the call's results whose types can carry material
// (bytes, strings, slices, structs, pointers — not bool/numeric/error).
func (ft *fnTaint) taintResults(call *ast.CallExpr, out []taintVal, t taintVal) {
	info := ft.node.Pkg.Info
	rt := info.TypeOf(call)
	if rt == nil {
		return
	}
	if tup, ok := rt.(*types.Tuple); ok {
		for i := 0; i < tup.Len() && i < len(out); i++ {
			if propagatable(tup.At(i).Type()) {
				out[i] = out[i].or(t)
			}
		}
		return
	}
	if len(out) > 0 && propagatable(rt) {
		out[0] = out[0].or(t)
	}
}

// propagatable reports whether a type can carry key material across an
// external call boundary. Booleans, numerics and errors are the
// comparison/length/status shapes the check deliberately lets through.
func propagatable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Interface:
		return !isErrorType(t)
	}
	return true
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

func isStringy(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func resultCount(info *types.Info, call *ast.CallExpr) int {
	t := info.TypeOf(call)
	if t == nil {
		return 1
	}
	if tup, ok := t.(*types.Tuple); ok {
		return maxInt(tup.Len(), 1)
	}
	return 1
}
