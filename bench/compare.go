package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// gives (its default, exclusive method), so a spread computed here is the
// one the acceptance procedure computes. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	cut := func(i int) float64 {
		j := i * (ld + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func loadResultSet(path string) (map[string]map[string][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []resultRow
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := make(map[string]map[string][]float64)
	for _, r := range rows {
		if set[r.Workload] == nil {
			set[r.Workload] = make(map[string][]float64)
		}
		for k, v := range r.Metrics {
			set[r.Workload][k] = append(set[r.Workload][k], v)
		}
	}
	return set, nil
}

// verdict judges set b against set a on one metric. A spread (quartile
// distance over median) wider than the bound in either set means the
// runs cannot resolve a change of that size: unresolved, not unchanged.
func verdict(m metricSpec, a, b []float64) (line string, bad bool) {
	a1, a2, a3 := quartiles(a)
	b1, b2, b3 := quartiles(b)
	spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
	worse := (b2 - a2) / a2
	if m.Better == "higher" {
		worse = -worse
	}
	v := "ok"
	switch {
	case m.Name != "setup_s" && (spreadA > m.Bound || spreadB > m.Bound):
		v, bad = "unresolved", true
	case worse > m.Bound:
		v, bad = "regressed", true
	}
	return fmt.Sprintf("%-14s %12.4g [%.4g %.4g] %5.1f%% %12.4g [%.4g %.4g] %5.1f%% %+6.1f%% (bound %.0f%%) %s",
		m.Name, a2, a1, a3, 100*spreadA, b2, b1, b3, 100*spreadB, 100*worse, 100*m.Bound, v), bad
}

// compareSets prints one row per workload and end-to-end metric: both
// sets' medians, quartiles and spreads, how much worse the second is, and
// the verdict against the metric's bound.
func compareSets(bm *benchmarkFile, pathA, pathB string) error {
	a, err := loadResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-15s %-14s %12s %-19s %6s %12s %-19s %6s %7s\n", "workload", "metric", "median a", "[q1 q3]", "spread", "median b", "[q1 q3]", "spread", "worse")
	bad := 0
	for _, w := range workloads {
		for _, m := range bm.EndToEnd {
			va, vb := a[w.name][m.Name], b[w.name][m.Name]
			if len(va) < 2 || len(vb) < 2 {
				return fmt.Errorf("%s %s: a result set needs at least two runs", w.name, m.Name)
			}
			line, isBad := verdict(m, va, vb)
			fmt.Printf("%-15s %s\n", w.name, line)
			if isBad {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) regressed or unresolved", bad)
	}
	return nil
}
