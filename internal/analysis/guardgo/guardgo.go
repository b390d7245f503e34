// Package guardgo enforces the concurrency-accounting invariant of the
// guarded packages (internal/pipeline, internal/mapreduce,
// internal/opsloop, internal/source): work must stay
// visible to the deadline/watchdog machinery of internal/guard.
//
// Inside those packages, production code may not:
//
//   - spawn a bare goroutine: a `go` statement is allowed only when the
//     spawned work references the guard package (registers a watchdog
//     worker, runs under guard.RunBounded/guard.BoundWork, holds a
//     guard.Semaphore) so its lifetime is accounted for;
//   - call context.Background() or context.TODO(): detaching from the
//     caller's context severs deadline and cancellation propagation, so
//     work must carry the context it was given.
//
// A reviewed exception is annotated //bw:guarded <why>.
//
// Test files are exempt: tests legitimately use context.Background and
// raw goroutines as harness scaffolding.
package guardgo

import (
	"go/ast"
	"go/types"
	"path"

	"baywatch/internal/analysis"
)

// Analyzer is the guardgo analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "guardgo",
	Doc:  "goroutines in guarded packages must be watchdog-tracked and carry the caller's context",
	Run:  run,
}

const directive = "guarded"

func run(pass *analysis.Pass) (any, error) {
	if !analysis.GuardedPackages[path.Base(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ds := pass.Directives(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				// Establish the violation before consulting the directive:
				// consulting first would mark a directive on an already-guarded
				// goroutine as live and hide its staleness from the audit.
				if !referencesGuard(pass, n) && !ds.Covers(pass.Fset, n.Pos(), directive) {
					pass.Reportf(n.Pos(), "bare goroutine in guarded package %s: spawn through internal/guard (watchdog worker, RunBounded, Semaphore) or annotate //bw:guarded <why>", pass.Pkg.Name())
				}
			case *ast.CallExpr:
				if fn := calleeFunc(pass, n); fn != nil &&
					fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
					(fn.Name() == "Background" || fn.Name() == "TODO") {
					if !ds.Covers(pass.Fset, n.Pos(), directive) {
						pass.Reportf(n.Pos(), "context.%s() in guarded package %s detaches from the caller's deadline; thread the caller's context through (or annotate //bw:guarded <why>)", fn.Name(), pass.Pkg.Name())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// referencesGuard reports whether the goroutine's spawned expression
// mentions anything from the guard package, which is the structural
// signal that its lifetime is tracked.
func referencesGuard(pass *analysis.Pass, g *ast.GoStmt) bool {
	found := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "guard" {
			found = true
		}
		return !found
	})
	return found
}

// calleeFunc resolves a call's static callee, or nil.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
