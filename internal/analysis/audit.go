package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"os"
	"sort"
	"strconv"
	"strings"
)

// GuardedPackages are the package basenames running concurrent,
// long-lived or partitioned work under internal/guard supervision: the
// daemon/executor layer of the system. guardgo, ctxflow's loop rule and
// lockorder's blocking-while-locked rule all scope to this set.
var GuardedPackages = map[string]bool{
	"pipeline":  true,
	"mapreduce": true,
	"opsloop":   true,
	"source":    true,
}

// StaleDirective is one audit finding: a //bw: directive no analyzer
// honored during the run.
type StaleDirective struct {
	Directive Directive
	// Reason distinguishes "suppresses nothing" from other audit failures
	// in the formatted output.
	Reason string
}

func (s StaleDirective) String() string {
	return fmt.Sprintf("%s:%d: //bw:%s %s", s.Directive.File, s.Directive.Line, s.Directive.Name, s.Reason)
}

// AuditResult is the outcome of one Audit run.
type AuditResult struct {
	// Findings are the suite's ordinary diagnostics, formatted.
	Findings []string
	// Stale are the suppression directives that suppressed nothing.
	Stale []StaleDirective
	// Counts is the live suppression-directive count per directive name
	// (contract directives like noalloc excluded).
	Counts map[string]int
}

// Audit runs every analyzer over every loadable package with one shared
// directive tracker per package, then sweeps all scanned files for
// suppression directives nothing consumed. A directive is live exactly
// when some analyzer consulted it and honored it — i.e. it suppressed a
// diagnostic that would otherwise fire (or, for contract directives,
// imposed its obligations). Everything else is stale: the code it
// excused has been fixed or deleted, and keeping the annotation would
// quietly waive a future regression.
func Audit(l *Loader, analyzers []*Analyzer) (*AuditResult, error) {
	res := &AuditResult{Counts: map[string]int{}}
	for _, path := range l.Paths() {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		tr := NewDirectiveTracker()
		for _, a := range analyzers {
			diags, err := RunAnalyzerTracked(a, l, pkg, tr)
			if err != nil {
				return nil, err
			}
			for _, d := range diags {
				res.Findings = append(res.Findings, fmt.Sprintf("%s: [%s] %s", l.Fset.Position(d.Pos), a.Name, d.Message))
			}
		}
		files := append(append([]*ast.File{}, pkg.Files...), pkg.TestFiles...)
		for _, f := range files {
			for _, d := range FileDirectives(l.Fset, f) {
				if _, known := KnownDirectives[d.Name]; !known {
					// directiveaudit reports unknown names as ordinary
					// findings; the audit sweep skips them.
					continue
				}
				if ContractDirectives[d.Name] {
					continue
				}
				res.Counts[d.Name]++
				if !tr.Consumed(d) {
					res.Stale = append(res.Stale, StaleDirective{
						Directive: d,
						Reason: fmt.Sprintf("is stale: %s reports no diagnostic here anymore; delete the directive",
							KnownDirectives[d.Name]),
					})
				}
			}
		}
	}
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i].Directive, res.Stale[j].Directive
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res, nil
}

// Budget is the committed per-directive suppression ceiling
// (DIRECTIVE_BUDGET.txt): the ratchet that keeps the tree's reviewed
// exceptions from creeping upward. CI fails when the live count of any
// suppression directive exceeds its budgeted ceiling; when a count drops
// below its ceiling the audit asks for the file to be ratcheted down, so
// the committed numbers only ever shrink.
type Budget map[string]int

// ParseBudget reads a budget file: one "<directive-name> <max>" pair per
// line, '#' comments and blank lines ignored.
func ParseBudget(path string) (Budget, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := Budget{}
	sc := bufio.NewScanner(f)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<directive> <max>\", got %q", path, lineno, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s:%d: bad count %q", path, lineno, fields[1])
		}
		name := fields[0]
		if _, known := KnownDirectives[name]; !known {
			return nil, fmt.Errorf("%s:%d: unknown directive %q", path, lineno, name)
		}
		if _, dup := b[name]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate entry for %q", path, lineno, name)
		}
		b[name] = n
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// Check compares live directive counts against the budget. Violations
// (count over budget, or a directive with no budget line at all) fail
// the audit; ratchets (count under budget) are advisory prompts to lower
// the committed ceiling.
func (b Budget) Check(counts map[string]int) (violations, ratchets []string) {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := counts[name]
		max, ok := b[name]
		switch {
		case !ok:
			violations = append(violations, fmt.Sprintf("//bw:%s: %d suppression(s) but no budget line; add %q", name, n, fmt.Sprintf("%s %d", name, n)))
		case n > max:
			violations = append(violations, fmt.Sprintf("//bw:%s: %d suppression(s) exceed the budget of %d; fix the code instead of annotating it", name, n, max))
		case n < max:
			ratchets = append(ratchets, fmt.Sprintf("//bw:%s: %d suppression(s), budget %d — ratchet the budget down to %d", name, n, max, n))
		}
	}
	// A budget line whose directive has vanished entirely should ratchet
	// to zero (and then be deleted).
	budgeted := make([]string, 0, len(b))
	for name := range b {
		budgeted = append(budgeted, name)
	}
	sort.Strings(budgeted)
	for _, name := range budgeted {
		if _, live := counts[name]; !live && b[name] > 0 {
			ratchets = append(ratchets, fmt.Sprintf("//bw:%s: no suppressions remain, budget %d — ratchet the budget down to 0", name, b[name]))
		}
	}
	return violations, ratchets
}

// Format renders the budget in the committed file format.
func (b Budget) Format(counts map[string]int) string {
	var sb strings.Builder
	sb.WriteString("# DIRECTIVE_BUDGET.txt — per-analyzer ceiling on //bw: suppression directives.\n")
	sb.WriteString("# Enforced by `bwlint -audit` in CI. Counts may only ratchet downward:\n")
	sb.WriteString("# fix code to remove a suppression, then lower its line here in the same\n")
	sb.WriteString("# change. Raising a ceiling requires review of why the new exception\n")
	sb.WriteString("# cannot be fixed instead.\n")
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "%s %d\n", name, counts[name])
	}
	return sb.String()
}
