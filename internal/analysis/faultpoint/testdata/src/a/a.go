package a

import "faultinject"

// Allowed: registered constants, keyed instances, and variables.
func good() error      { return faultinject.Check(faultinject.PointAlphaWrite, "") }
func goodKeyed() error { return faultinject.Check(faultinject.PointBetaTask, "src|dst") }
func goodVar(p string) faultinject.Point {
	return faultinject.Point(p)
}

// Flagged: bare literals in Point positions.
func bad() error {
	return faultinject.Check("alpha.write", "") // want `fault point written as string literal`
}

func badTypo() error {
	return faultinject.Check("alpha.wirte", "") // want `fault point written as string literal`
}

func badConversion() faultinject.Point {
	return faultinject.Point("alpha.conv") // want `fault point written as string literal`
}

// Allowed: a deliberate, annotated literal.
func blessed() error {
	return faultinject.Check("scratch.local", "") //bw:faultpoint deliberately unregistered scratch point
}

// Flagged: literals that collide with a registered point, e.g. in
// comparisons or prefix matches.
func lookalike(p string) bool {
	return p == "alpha.write" // want `duplicates registered fault point`
}

func lookalikeKeyed(p string) bool {
	return p == "beta.task:src|dst" // want `duplicates registered fault point`
}

// Allowed: unrelated literals.
func unrelated() string { return "no.such.point" }
