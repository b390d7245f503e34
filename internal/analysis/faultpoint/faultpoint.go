// Package faultpoint enforces the fault-injection naming invariant: every
// fault-point name in the repo is a registered faultinject.Point constant,
// never a bare string literal. A typo in a literal point name silently
// disarms the fault hook it was meant to script — the test still passes,
// the crash-coverage it claimed is gone — so the names must flow through
// the central registry where the compiler and this analyzer can check
// them.
//
// Flagged:
//   - a string literal passed where a faultinject.Point is expected
//     (the faultinject.Check seam, Scheduler scheduling methods, Point
//     conversions);
//   - in test files (which are not type-checked), a string literal as the
//     point argument of a Scheduler scheduling method;
//   - a string literal anywhere whose value equals a registered point (or
//     a keyed instance of one): comparisons and prefix matches must
//     reference the constant too;
//   - in the faultinject package itself: duplicate point values, and
//     declared Point constants missing from the Points() registry.
//
// The //bw:faultpoint directive blesses a deliberate literal, e.g. the
// scratch point names in faultinject's own scheduler unit tests.
package faultpoint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"baywatch/internal/analysis"
)

// Analyzer is the faultpoint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "faultpoint",
	Doc:  "fault-point names must be registered faultinject.Point constants, not string literals",
	Run:  run,
}

const directive = "faultpoint"

// schedulingMethods are the Scheduler methods that take a point name;
// test files are matched by method name alone since they are not
// type-checked.
var schedulingMethods = map[string]bool{
	"FailAt":        true,
	"FailTransient": true,
	"CrashAt":       true,
	"DelayAt":       true,
	"HangAt":        true,
}

func run(pass *analysis.Pass) (any, error) {
	fiPkg := findFaultinject(pass.Pkg)
	var registry map[string]bool
	if fiPkg != nil {
		registry = pointConstants(fiPkg)
	}
	self := pass.Pkg.Name() == "faultinject"

	if self {
		checkRegistry(pass)
	}

	// reported dedupes positions across the checks: a literal that is both
	// a typed Point argument and a registry lookalike gets one diagnostic.
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ds := pass.Directives(f)
		checkTypedPointArgs(pass, f, ds, reported)
		// Literal lookalikes: skip the production files of the faultinject
		// package itself — points.go is where the literals are declared.
		if !self {
			checkLiteralLookalikes(pass, f, ds, registry, reported)
		}
	}
	for _, f := range pass.TestFiles {
		ds := pass.Directives(f)
		checkSchedulingCallsSyntactic(pass, f, ds, reported)
		checkLiteralLookalikes(pass, f, ds, registry, reported)
	}
	return nil, nil
}

// findFaultinject locates the faultinject package among the analyzed
// package and its transitive imports.
func findFaultinject(pkg *types.Package) *types.Package {
	if pkg.Name() == "faultinject" {
		return pkg
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package) *types.Package
	walk = func(p *types.Package) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Name() == "faultinject" {
				return imp
			}
			if found := walk(imp); found != nil {
				return found
			}
		}
		return nil
	}
	return walk(pkg)
}

// pointConstants returns the values of the Point-typed constants declared
// in the faultinject package.
func pointConstants(fi *types.Package) map[string]bool {
	reg := map[string]bool{}
	scope := fi.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isPointType(c.Type()) {
			continue
		}
		reg[constant.StringVal(c.Val())] = true
	}
	return reg
}

// isPointType reports whether t is (a named type called) faultinject.Point.
func isPointType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Point" && obj.Pkg() != nil && obj.Pkg().Name() == "faultinject"
}

// checkTypedPointArgs flags string literals in positions typed as
// faultinject.Point: arguments to faultinject.Check and Scheduler methods,
// and Point("literal") conversions.
func checkTypedPointArgs(pass *analysis.Pass, f *ast.File, ds analysis.DirectiveSet, reported map[token.Pos]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[call.Fun]
		if !ok {
			return true
		}
		if tv.IsType() {
			// Conversion: Point("literal").
			if isPointType(tv.Type) && len(call.Args) == 1 {
				if lit := stringLit(call.Args[0]); lit != nil && !ds.Covers(pass.Fset, lit.Pos(), directive) && !reported[lit.Pos()] {
					reported[lit.Pos()] = true
					pass.Reportf(lit.Pos(), "fault point written as string literal %s; use a registered faultinject.Point constant (or annotate //bw:faultpoint)", lit.Value)
				}
			}
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		params := sig.Params()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
				pt = params.At(i).Type()
			case sig.Variadic() && params.Len() > 0:
				if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = s.Elem()
				}
			}
			if pt == nil || !isPointType(pt) {
				continue
			}
			if lit := stringLit(arg); lit != nil && !ds.Covers(pass.Fset, lit.Pos(), directive) && !reported[lit.Pos()] {
				reported[lit.Pos()] = true
				pass.Reportf(lit.Pos(), "fault point written as string literal %s; use a registered faultinject.Point constant (or annotate //bw:faultpoint)", lit.Value)
			}
		}
		return true
	})
}

// checkSchedulingCallsSyntactic is the untyped fallback for test files:
// any method call named like a Scheduler scheduling method with a literal
// first argument.
func checkSchedulingCallsSyntactic(pass *analysis.Pass, f *ast.File, ds analysis.DirectiveSet, reported map[token.Pos]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !schedulingMethods[sel.Sel.Name] || len(call.Args) == 0 {
			return true
		}
		if lit := stringLit(call.Args[0]); lit != nil && !ds.Covers(pass.Fset, lit.Pos(), directive) && !reported[lit.Pos()] {
			reported[lit.Pos()] = true
			pass.Reportf(lit.Pos(), "fault point written as string literal %s in %s call; use a registered faultinject.Point constant (or annotate //bw:faultpoint)", lit.Value, sel.Sel.Name)
		}
		return true
	})
}

// checkLiteralLookalikes flags string literals whose value collides with a
// registered point (exactly, or as a keyed instance "<point>:<key>"):
// comparisons and prefix matches written as literals rot silently when the
// registered name changes.
func checkLiteralLookalikes(pass *analysis.Pass, f *ast.File, ds analysis.DirectiveSet, registry map[string]bool, reported map[token.Pos]bool) {
	if len(registry) == 0 {
		return
	}
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		val := strings.Trim(lit.Value, "`\"")
		name := val
		if i := strings.IndexByte(val, ':'); i > 0 {
			name = val[:i]
		}
		if !registry[name] && !registry[val] {
			return true
		}
		if ds.Covers(pass.Fset, lit.Pos(), directive) || reported[lit.Pos()] {
			return true
		}
		reported[lit.Pos()] = true
		pass.Reportf(lit.Pos(), "string literal %s duplicates registered fault point %q; reference the faultinject.Point constant instead", lit.Value, name)
		return true
	})
}

// checkRegistry runs inside the faultinject package: every declared Point
// constant must appear in the Points() registry literal exactly once.
func checkRegistry(pass *analysis.Pass) {
	declared := map[string]token.Pos{}
	valueOf := map[string]string{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !isPointType(c.Type()) {
			continue
		}
		declared[name] = c.Pos()
		valueOf[name] = constant.StringVal(c.Val())
	}

	// Duplicate values.
	byValue := map[string]string{}
	for name, val := range valueOf {
		if other, ok := byValue[val]; ok {
			first, second := other, name
			if declared[second] < declared[first] {
				first, second = second, first
			}
			pass.Reportf(declared[second], "fault point %s duplicates the value %q of %s", second, val, first)
			continue
		}
		byValue[val] = name
	}

	// Registry completeness: collect identifiers in the Points() return
	// literal.
	inRegistry := map[string]int{}
	var registryPos token.Pos
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "Points" || fn.Recv != nil {
				continue
			}
			registryPos = fn.Pos()
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if cl, ok := n.(*ast.CompositeLit); ok {
					for _, el := range cl.Elts {
						if id, ok := el.(*ast.Ident); ok {
							inRegistry[id.Name]++
						}
					}
				}
				return true
			})
		}
	}
	if registryPos == token.NoPos {
		return // no Points() in this package shape; nothing to check
	}
	for name, n := range inRegistry {
		if n > 1 {
			pass.Reportf(registryPos, "fault point %s listed %d times in Points()", name, n)
		}
	}
	for name, pos := range declared {
		if inRegistry[name] == 0 {
			pass.Reportf(pos, "fault point %s is declared but missing from the Points() registry", name)
		}
	}
}

// stringLit returns e as a string literal, looking through parens.
func stringLit(e ast.Expr) *ast.BasicLit {
	e = ast.Unparen(e)
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	return lit
}
