// Package goleak flags goroutine- and timer-leak shapes that only hurt
// in long-lived processes — exactly the deployment the always-on daemon
// runs as. Two families are checked in production files, tree-wide:
//
//   - timer pile-up: time.After inside a loop allocates a new timer
//     every iteration, and each one survives until it fires even when
//     the select took another arm. A per-connection read loop ticking
//     every few seconds grows thousands of pending timers. The fix is a
//     hoisted time.NewTimer/time.NewTicker that is stopped and reused.
//     time.Tick is flagged anywhere: its ticker can never be stopped.
//
//   - forever-blocked senders: a goroutine whose channel send has no
//     cancellation arm blocks forever once the receiver is gone, pinning
//     the goroutine and everything it closes over. A send is accepted
//     when it sits in a select with another arm (a done channel or
//     default), or when the channel is provably buffered — created in
//     the same function by make(chan T, n) with constant n > 0 — the
//     result-handoff idiom guard.RunBounded uses.
//
// Known false-negative shapes (documented, accepted): sends inside
// nested function literals of a goroutine body are not analyzed (the
// literal may run on any goroutine), buffering is only recognized when
// the make call is in the same function, and a buffered channel sent to
// more times than its capacity still blocks.
//
// A reviewed exception is annotated //bw:goleak <why>. Test files are
// exempt: a test's timers and goroutines die with the test binary.
package goleak

import (
	"go/ast"
	"go/constant"
	"go/types"

	"baywatch/internal/analysis"
)

// Analyzer is the goleak analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goleak",
	Doc:  "no time.After in loops, no time.Tick, no goroutine sends that can block forever",
	Run:  run,
}

const directive = "goleak"

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		ds := pass.Directives(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			buffered := bufferedChans(pass, fn.Body)
			checkTimers(pass, ds, fn.Body, false)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
					checkGoroutineSends(pass, ds, lit.Body, buffered)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkTimers walks one function body flagging time.Tick anywhere and
// time.After inside a loop (inLoop tracks enclosing for/range statements,
// including across nested function literals: a literal declared inside a
// loop body runs per iteration).
func checkTimers(pass *analysis.Pass, ds analysis.DirectiveSet, n ast.Node, inLoop bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			checkTimers(pass, ds, n.Init, inLoop)
			checkTimers(pass, ds, n.Cond, inLoop)
			checkTimers(pass, ds, n.Post, inLoop)
			checkTimers(pass, ds, n.Body, true)
			return false
		case *ast.RangeStmt:
			checkTimers(pass, ds, n.X, inLoop)
			checkTimers(pass, ds, n.Body, true)
			return false
		case *ast.CallExpr:
			fn := timeFunc(pass, n)
			switch {
			case fn == "Tick":
				if !ds.Covers(pass.Fset, n.Pos(), directive) {
					pass.Reportf(n.Pos(), "time.Tick leaks its ticker forever; use time.NewTicker with a deferred Stop (or annotate //bw:goleak <why>)")
				}
			case fn == "After" && inLoop:
				if !ds.Covers(pass.Fset, n.Pos(), directive) {
					pass.Reportf(n.Pos(), "time.After in a loop piles up a pending timer per iteration until each fires; hoist a stopped time.NewTimer/time.NewTicker outside the loop (or annotate //bw:goleak <why>)")
				}
			}
		}
		return true
	})
}

// checkGoroutineSends flags sends in a goroutine body that can block
// forever: not in a select with an escape arm, and not on a channel
// provably buffered in the spawning function.
func checkGoroutineSends(pass *analysis.Pass, ds analysis.DirectiveSet, body ast.Node, buffered map[types.Object]bool) {
	var walk func(n ast.Node, protected bool)
	walk = func(n ast.Node, protected bool) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// A nested literal may run on any goroutine; out of scope.
				return false
			case *ast.SelectStmt:
				escape := len(n.Body.List) > 1
				for _, c := range n.Body.List {
					if c.(*ast.CommClause).Comm == nil {
						escape = true // default: the send cannot block
					}
				}
				for _, c := range n.Body.List {
					cc := c.(*ast.CommClause)
					walk(cc.Comm, escape)
					for _, s := range cc.Body {
						walk(s, false)
					}
				}
				return false
			case *ast.SendStmt:
				if protected || isBuffered(pass, n.Chan, buffered) {
					return true
				}
				if !ds.Covers(pass.Fset, n.Pos(), directive) {
					pass.Reportf(n.Pos(), "goroutine send on %s can block forever once the receiver is gone; select on a cancellation arm or use a buffered channel (or annotate //bw:goleak <why>)", types.ExprString(n.Chan))
				}
			}
			return true
		})
	}
	walk(body, false)
}

// bufferedChans collects the channel variables the function creates with
// a constant positive capacity: sends on them (up to that capacity)
// cannot block.
func bufferedChans(pass *analysis.Pass, body ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) != 2 {
			return
		}
		if b, ok := pass.TypesInfo.Uses[callIdent(call.Fun)].(*types.Builtin); !ok || b.Name() != "make" {
			return
		}
		tv, ok := pass.TypesInfo.Types[call.Args[1]]
		if !ok || tv.Value == nil {
			return
		}
		if v, exact := constant.Int64Val(tv.Value); exact && v > 0 {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

func isBuffered(pass *analysis.Pass, ch ast.Expr, buffered map[types.Object]bool) bool {
	id, ok := ast.Unparen(ch).(*ast.Ident)
	if !ok {
		return false
	}
	return buffered[pass.TypesInfo.Uses[id]]
}

// timeFunc returns the name of the time-package function a call resolves
// to, or "".
func timeFunc(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	// Methods like time.Time.After live in the time package too; only
	// package-level functions are timer constructors.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return ""
	}
	return fn.Name()
}

// callIdent returns the identifier a call target is, or nil.
func callIdent(fun ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(fun).(*ast.Ident)
	return id
}
