package analysis

import (
	"go/ast"
	"go/token"
)

// runGoFunc confines raw `go` statements to the packages that own the repo's
// two sanctioned concurrency surfaces: the tensor worker pool (persistent
// workers, allocation-free dispatch, deterministic partitioning) and the
// serving layer (shard goroutines with managed lifecycles).
// Everywhere else an ad-hoc goroutine bypasses SetMaxWorkers, evades the
// pool's determinism guarantees, and has no drain path — route the work
// through ParallelCtx/ParallelKernel instead, or suppress with
// //hpnn:allow(gofunc) where a goroutine's lifecycle is genuinely managed
// (e.g. a server main's accept loop).
func runGoFunc(prog *Program, report func(pos token.Pos, format string, args ...any)) {
	for _, pkg := range prog.Pkgs {
		if matchPkg(pkg.Path, prog.Config.GoStmtAllowPkgs) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					report(g.Pos(), "raw go statement outside the worker pool and serve: use tensor.ParallelCtx/ParallelKernel")
				}
				return true
			})
		}
	}
}
