// Package lockorder enforces lock discipline over sync.Mutex and
// sync.RWMutex, the invariants the daemon's concurrency keeps implicit:
//
//   - release on every path: a Lock/RLock must be matched by a deferred
//     Unlock/RUnlock, or by an Unlock with no return statement between
//     acquisition and release. A lock that leaks on an early-return path
//     deadlocks the next acquirer — usually minutes later, in another
//     goroutine, with a stack that names the victim instead of the
//     culprit.
//
//   - consistent acquisition order, package-wide: if any function
//     acquires lock B while holding lock A, no function in the package
//     may acquire A while holding B. Inconsistent pairwise order is the
//     classic AB/BA deadlock; the analyzer keys locks by their declared
//     variable or field, so `e.mu` in one method and `eng.mu` in another
//     are the same lock.
//
//   - no blocking while locked (guarded packages only): channel sends
//     and receives, selects without a default, time.Sleep, WaitGroup and
//     Cond waits, and known-blocking I/O calls (io/os/net/bufio/net‑http
//     read/write/accept/flush shapes) must not run under a held mutex. A lock held across a blocking operation
//     couples every other critical section to that operation's latency —
//     in internal/source that means one slow client stalls every
//     producer.
//
// The analysis is lexical (per function body, in source order), not a
// CFG: a lock released only on one branch, or handed off between
// functions, is out of scope. Known false-negative shapes are listed in
// DESIGN.md 5j; TryLock/TryRLock results are not tracked at all.
//
// A reviewed exception is annotated //bw:lockorder <why>. Test files are
// exempt.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"

	"baywatch/internal/analysis"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "locks must release on all paths, acquire in one package-wide order, and never be held across blocking ops (guarded packages)",
	Run:  run,
}

const directive = "lockorder"

// event is one lock-relevant occurrence in a function body, in lexical
// order.
type lockEvent struct {
	kind string // "lock", "rlock", "unlock", "runlock"
	expr string // expression text of the mutex within this function
	obj  types.Object
	pos  token.Pos
}

// edge records "to acquired while holding from" at pos.
type orderEdge struct {
	from, to types.Object
	pos      token.Pos
	fromName string
	toName   string
}

func run(pass *analysis.Pass) (any, error) {
	blockingRule := analysis.GuardedPackages[path.Base(pass.Pkg.Path())]
	var edges []orderEdge
	for _, f := range pass.Files {
		ds := pass.Directives(f)
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkScopes(pass, ds, fn.Body, blockingRule, &edges)
		}
	}
	checkOrder(pass, edges)
	return nil, nil
}

// checkScopes analyzes body as one scope and recurses into nested
// function literals as fresh scopes (a literal runs on its own schedule;
// locks do not pair across the boundary).
func checkScopes(pass *analysis.Pass, ds analysis.DirectiveSet, body *ast.BlockStmt, blockingRule bool, edges *[]orderEdge) {
	var events []lockEvent
	var deferred []lockEvent
	var returns []token.Pos
	var lits []*ast.FuncLit

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.DeferStmt:
			ast.Inspect(n.Call, func(d ast.Node) bool {
				if call, ok := d.(*ast.CallExpr); ok {
					if ev, ok := mutexCall(pass, call); ok && (ev.kind == "unlock" || ev.kind == "runlock") {
						deferred = append(deferred, ev)
					}
				}
				return true
			})
			return false
		case *ast.ReturnStmt:
			returns = append(returns, n.Pos())
		case *ast.CallExpr:
			if ev, ok := mutexCall(pass, n); ok {
				events = append(events, ev)
			}
		}
		return true
	})

	checkRelease(pass, ds, events, deferred, returns)
	collectEdgesAndBlocking(pass, ds, body, events, deferred, blockingRule, edges)

	for _, lit := range lits {
		checkScopes(pass, ds, lit.Body, blockingRule, edges)
	}
}

// pairKind maps an acquisition kind to its release kind.
func pairKind(kind string) string {
	if kind == "rlock" {
		return "runlock"
	}
	return "unlock"
}

// checkRelease enforces the release-on-every-path rule for one scope.
func checkRelease(pass *analysis.Pass, ds analysis.DirectiveSet, events, deferred []lockEvent, returns []token.Pos) {
	for _, ev := range events {
		if ev.kind != "lock" && ev.kind != "rlock" {
			continue
		}
		release := pairKind(ev.kind)
		cover := false
		for _, d := range deferred {
			if d.kind == release && sameLock(d, ev) {
				cover = true
				break
			}
		}
		if cover {
			continue
		}
		// Nearest following release of the same lock.
		var next token.Pos
		for _, u := range events {
			if u.kind == release && sameLock(u, ev) && u.pos > ev.pos && (next == token.NoPos || u.pos < next) {
				next = u.pos
			}
		}
		if next == token.NoPos {
			if !ds.Covers(pass.Fset, ev.pos, directive) {
				pass.Reportf(ev.pos, "%s.%s has no matching %s in this function; defer the release or annotate //bw:lockorder <why>", ev.expr, verb(ev.kind), verb(release))
			}
			continue
		}
		for _, r := range returns {
			if r > ev.pos && r < next {
				if !ds.Covers(pass.Fset, ev.pos, directive) {
					pass.Reportf(ev.pos, "return between %s.%s and its %s leaks the lock on that path; defer the release (or annotate //bw:lockorder <why>)", ev.expr, verb(ev.kind), verb(release))
				}
				break
			}
		}
	}
}

// collectEdgesAndBlocking replays the scope lexically, tracking the held
// set: it records acquisition-order edges for the package-wide check and
// (in guarded packages) flags blocking operations under a held lock.
func collectEdgesAndBlocking(pass *analysis.Pass, ds analysis.DirectiveSet, body *ast.BlockStmt, events, deferred []lockEvent, blockingRule bool, edges *[]orderEdge) {
	// held is the lexically-held lock stack at the current position.
	var held []lockEvent
	hold := func(ev lockEvent) {
		for _, h := range held {
			if h.obj != nil && ev.obj != nil && h.obj != ev.obj {
				*edges = append(*edges, orderEdge{
					from: h.obj, to: ev.obj, pos: ev.pos,
					fromName: h.expr, toName: ev.expr,
				})
			}
		}
		held = append(held, ev)
	}
	release := func(ev lockEvent) {
		for i := len(held) - 1; i >= 0; i-- {
			if sameLock(held[i], ev) && pairKind(held[i].kind) == ev.kind {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	idx := 0
	heldAt := func(pos token.Pos) *lockEvent {
		for idx < len(events) && events[idx].pos < pos {
			ev := events[idx]
			switch ev.kind {
			case "lock", "rlock":
				hold(ev)
			case "unlock", "runlock":
				release(ev)
			}
			idx++
		}
		if len(held) == 0 {
			return nil
		}
		return &held[len(held)-1]
	}
	// Deferred releases keep the lock held to scope end; they never pop.

	if !blockingRule {
		// Drain the event stream anyway so order edges are recorded.
		heldAt(body.End())
		return
	}

	report := func(pos token.Pos, what string, h *lockEvent) {
		if ds.Covers(pass.Fset, pos, directive) {
			return
		}
		pass.Reportf(pos, "%s while holding %s couples every critical section to its latency; release the lock first (or annotate //bw:lockorder <why>)", what, h.expr)
	}
	// Channel ops that are a select clause's Comm are subsumed by the
	// select itself (reported once, and only when it has no default).
	selectComm := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if selectComm[n] {
				return true
			}
			if h := heldAt(n.Pos()); h != nil {
				report(n.Pos(), "channel send", h)
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !selectComm[n] {
				if h := heldAt(n.Pos()); h != nil {
					report(n.Pos(), "channel receive", h)
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm == nil {
					hasDefault = true
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					selectComm[comm] = true
				case *ast.ExprStmt:
					if u, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok {
						selectComm[u] = true
					}
				case *ast.AssignStmt:
					for _, rhs := range comm.Rhs {
						if u, ok := ast.Unparen(rhs).(*ast.UnaryExpr); ok {
							selectComm[u] = true
						}
					}
				}
			}
			if !hasDefault {
				if h := heldAt(n.Pos()); h != nil {
					report(n.Pos(), "select without default", h)
				}
			}
		case *ast.CallExpr:
			if what, blocking := blockingCall(pass, n); blocking {
				if h := heldAt(n.Pos()); h != nil {
					report(n.Pos(), what, h)
				}
			}
		}
		return true
	})
	heldAt(body.End())
}

// checkOrder reports pairwise-inconsistent acquisition orders across the
// package: both "B while holding A" and "A while holding B" observed.
func checkOrder(pass *analysis.Pass, edges []orderEdge) {
	type pair struct{ from, to types.Object }
	first := map[pair]orderEdge{}
	for _, e := range edges {
		p := pair{e.from, e.to}
		if _, ok := first[p]; !ok {
			first[p] = e
		}
	}
	reported := map[pair]bool{}
	for _, e := range edges {
		rev, ok := first[pair{e.to, e.from}]
		if !ok {
			continue
		}
		p := pair{e.from, e.to}
		// Report only the later-introduced direction, once per pair, so a
		// consistent majority order names the deviant site.
		if first[p].pos < rev.pos || reported[p] {
			continue
		}
		reported[p] = true
		pass.Reportf(e.pos, "acquiring %s while holding %s inverts the package's acquisition order (%s is taken while holding %s at %s); pick one order (or annotate //bw:lockorder <why>)",
			e.toName, e.fromName, rev.toName, rev.fromName, pass.Fset.Position(rev.pos))
	}
}

// mutexCall classifies a call as a sync.Mutex/RWMutex lock-family method
// on a resolvable lock expression.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	var kind string
	switch fn.Name() {
	case "Lock":
		kind = "lock"
	case "RLock":
		kind = "rlock"
	case "Unlock":
		kind = "unlock"
	case "RUnlock":
		kind = "runlock"
	default:
		return lockEvent{}, false
	}
	// Only mutex kinds: sync.Once/WaitGroup have no Lock; Locker interface
	// values resolve to the interface method, which also lives in sync.
	recv := fn.Type().(*types.Signature).Recv()
	if recv != nil {
		t := recv.Type()
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
		}
		if named, isNamed := t.(*types.Named); isNamed {
			name := named.Obj().Name()
			if name != "Mutex" && name != "RWMutex" && name != "Locker" {
				return lockEvent{}, false
			}
		}
	}
	return lockEvent{
		kind: kind,
		expr: types.ExprString(sel.X),
		obj:  lockObject(pass, sel.X),
		pos:  call.Pos(),
	}, true
}

// lockObject resolves the identity of the locked mutex: the declared
// variable or struct field, stable across different receiver names.
func lockObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	}
	return nil
}

// sameLock reports whether two events name the same mutex: by resolved
// object when both resolved, by expression text otherwise.
func sameLock(a, b lockEvent) bool {
	if a.obj != nil && b.obj != nil {
		return a.obj == b.obj
	}
	return a.expr == b.expr
}

func verb(kind string) string {
	switch kind {
	case "lock":
		return "Lock"
	case "rlock":
		return "RLock"
	case "runlock":
		return "RUnlock"
	default:
		return "Unlock"
	}
}

// blockingFuncs are package-level functions known to block (sleep, I/O).
var blockingFuncs = map[string]map[string]bool{
	"time":     {"Sleep": true},
	"io":       {"ReadAll": true, "Copy": true, "CopyN": true, "CopyBuffer": true, "ReadFull": true},
	"os":       {"ReadFile": true, "WriteFile": true, "Rename": true, "Create": true, "Open": true, "OpenFile": true, "Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true},
	"net":      {"Dial": true, "DialTimeout": true, "Listen": true},
	"net/http": {"Get": true, "Post": true, "PostForm": true, "Head": true},
}

// blockingMethodPkgs are packages whose read/write/accept-shaped methods
// block on the outside world.
var blockingMethodPkgs = map[string]bool{
	"net": true, "os": true, "bufio": true, "net/http": true,
}

var blockingMethodNames = map[string]bool{
	"Read": true, "ReadAt": true, "ReadByte": true, "ReadBytes": true,
	"ReadString": true, "ReadRune": true, "ReadFrom": true,
	"Write": true, "WriteAt": true, "WriteString": true, "WriteByte": true,
	"WriteTo": true, "Flush": true, "Sync": true, "Accept": true,
	"Do": true, "Serve": true, "ListenAndServe": true,
}

// blockingCall classifies known-blocking calls: sleeps, sync waits, and
// I/O-shaped functions and methods.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	pkg := fn.Pkg().Path()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		if blockingFuncs[pkg][fn.Name()] {
			return fmt.Sprintf("%s.%s call", fn.Pkg().Name(), fn.Name()), true
		}
		return "", false
	}
	if pkg == "sync" && fn.Name() == "Wait" {
		return "sync wait", true
	}
	if blockingMethodPkgs[pkg] && blockingMethodNames[fn.Name()] {
		return fmt.Sprintf("blocking %s.(%s) call", fn.Pkg().Name(), fn.Name()), true
	}
	return "", false
}
