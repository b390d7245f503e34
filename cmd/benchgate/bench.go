package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// series collects one benchmark's repetitions across a -count=N run.
// Besides the standard ns/op and allocs/op columns, any custom
// b.ReportMetric unit ending in "/s" (pairs/s, MB/s, ...) is collected as a
// higher-is-better rate.
type series struct {
	nsOp     []float64
	allocsOp []float64
	rates    map[string][]float64
}

func (s *series) addRate(unit string, v float64) {
	if s.rates == nil {
		s.rates = make(map[string][]float64)
	}
	s.rates[unit] = append(s.rates[unit], v)
}

// parseBench extracts benchmark results from raw `go test -bench` output.
// A benchmark line looks like
//
//	BenchmarkName-8   	 1234	 123456 ns/op	 16 B/op	 2 allocs/op
//
// The -GOMAXPROCS suffix is stripped so baselines recorded on machines with
// different core counts still match.
func parseBench(out string) (map[string]*series, error) {
	runs := make(map[string]*series)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count. A malformed or zero count means
		// the benchmark never actually ran (a crashed or truncated run), and
		// a gate that silently passes on such output is worse than useless —
		// fail the parse loudly instead.
		iters, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bad iteration count %q in line %q", fields[1], line)
		}
		if iters <= 0 {
			return nil, fmt.Errorf("zero repetitions in line %q: benchmark did not run", line)
		}
		s := runs[name]
		if s == nil {
			s = &series{}
			runs[name] = s
		}
		// The remaining fields are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			// ParseFloat accepts "NaN" and "Inf"; medians over them would
			// compare as neither greater nor smaller and pass every gate.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("non-finite value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; {
			case unit == "ns/op":
				s.nsOp = append(s.nsOp, v)
			case unit == "allocs/op":
				s.allocsOp = append(s.allocsOp, v)
			case strings.HasSuffix(unit, "/s"):
				s.addRate(unit, v)
			}
		}
	}
	return runs, nil
}

// median returns the middle order statistic (mean of the two middle values
// for even length); 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// allocSlack is the allowed allocs/op growth for a given baseline median:
// 2% of the baseline, rounded down. For the zero-allocation hot-path
// benchmarks (baseline under 50 allocs/op) that is exactly zero — any
// growth fails, the §5d contract. Macro benchmarks whose steady state
// flows through sync.Pool (the ingest suite, hundreds to thousands of
// allocs/op) jitter by a few allocations run-to-run as GC clears pools;
// the proportional slack absorbs that noise without letting a real
// regression (a per-record or per-pair allocation) through.
func allocSlack(baseline float64) float64 {
	return math.Floor(baseline * 0.02)
}

// compare evaluates the current run against the baseline and renders a
// per-benchmark report. failed is true when any gate tripped. noise maps
// benchmark names to a wider time threshold for macro benchmarks whose
// medians drift more than the default band run-to-run (seconds-long ops
// integrate co-tenant load); their precise gating comes from in-run
// -min-ratio checks instead.
func compare(baseline, current map[string]*series, timeThreshold float64, noise map[string]float64) (report string, failed bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "%-45s %15s %15s %8s\n", "benchmark", "base ns/op", "curr ns/op", "delta")
	for _, name := range names {
		threshold := timeThreshold
		if wide, ok := noise[name]; ok && wide > threshold {
			threshold = wide
		}
		base := baseline[name]
		curr, ok := current[name]
		if !ok {
			fmt.Fprintf(&b, "%-45s MISSING from current run: FAIL\n", name)
			failed = true
			continue
		}
		// An empty sample list would yield median 0 and a vacuous pass;
		// refuse to compare instead.
		if len(base.nsOp) == 0 || len(curr.nsOp) == 0 {
			fmt.Fprintf(&b, "%-45s no ns/op samples (base %d, curr %d): FAIL\n", name, len(base.nsOp), len(curr.nsOp))
			failed = true
			continue
		}
		baseNs, currNs := median(base.nsOp), median(curr.nsOp)
		delta := 0.0
		if baseNs > 0 {
			delta = (currNs - baseNs) / baseNs
		}
		verdict := ""
		if delta > threshold {
			verdict = fmt.Sprintf("  FAIL: ns/op regressed %.1f%% (limit %.0f%%)", delta*100, threshold*100)
			failed = true
		}
		baseAllocs, currAllocs := median(base.allocsOp), median(curr.allocsOp)
		switch {
		case len(base.allocsOp) > 0 && len(curr.allocsOp) == 0:
			// The baseline tracks allocations but the current run has no
			// allocs/op column (run without -benchmem?): the allocation
			// gate would be skipped silently, so fail it explicitly.
			verdict += "  FAIL: allocs/op column missing from current run (baseline has it)"
			failed = true
		case len(base.allocsOp) > 0 && currAllocs > baseAllocs+allocSlack(baseAllocs):
			verdict += fmt.Sprintf("  FAIL: allocs/op regressed %.0f -> %.0f", baseAllocs, currAllocs)
			failed = true
		}
		// Custom rate metrics (unit ending "/s") are higher-is-better: the
		// current median must stay within the time threshold BELOW the
		// baseline. A rate tracked by the baseline but absent from the
		// current run fails like a missing allocs column would.
		rateUnits := make([]string, 0, len(base.rates))
		for unit := range base.rates {
			rateUnits = append(rateUnits, unit)
		}
		sort.Strings(rateUnits)
		for _, unit := range rateUnits {
			baseRate := median(base.rates[unit])
			currSamples := curr.rates[unit]
			if len(currSamples) == 0 {
				verdict += fmt.Sprintf("  FAIL: %s metric missing from current run (baseline has it)", unit)
				failed = true
				continue
			}
			currRate := median(currSamples)
			if currRate < baseRate*(1-threshold) {
				verdict += fmt.Sprintf("  FAIL: %s regressed %.0f -> %.0f (limit -%.0f%%)",
					unit, baseRate, currRate, threshold*100)
				failed = true
			}
		}
		fmt.Fprintf(&b, "%-45s %15.0f %15.0f %+7.1f%%%s\n", name, baseNs, currNs, delta*100, verdict)
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(&b, "%-45s new benchmark (not in baseline)\n", name)
		}
	}
	if failed {
		b.WriteString("\nbenchgate: FAIL — performance regressed against BENCH_BASELINE.txt\n")
		b.WriteString("(if the regression is intended, regenerate the baseline with `make bench-baseline`)\n")
	} else {
		b.WriteString("\nbenchgate: PASS\n")
	}
	return b.String(), failed
}

// parseNoiseSpec parses one -noise override, "<benchmark>:<threshold>",
// e.g. "BenchmarkDetectPerPair:0.35".
func parseNoiseSpec(s string) (name string, threshold float64, err error) {
	i := strings.LastIndex(s, ":")
	if i <= 0 || i == len(s)-1 {
		return "", 0, fmt.Errorf("noise %q: want <benchmark>:<threshold>", s)
	}
	threshold, err = strconv.ParseFloat(s[i+1:], 64)
	if err != nil || threshold <= 0 || threshold >= 1 || math.IsNaN(threshold) {
		return "", 0, fmt.Errorf("noise %q: threshold must be a fraction in (0, 1)", s)
	}
	return s[:i], threshold, nil
}

// ratioSpec is one -min-ratio requirement: within the CURRENT run, the
// median of numerator's unit metric must be at least factor times the
// median of denominator's. The spec text is
// "<numerator>/<denominator>:<unit>:<factor>", e.g.
// "BenchmarkDetectBatch/BenchmarkDetectPerPair:pairs/s:2". The pair
// divides at its last "/Benchmark", so either side may name a
// sub-benchmark ("BenchmarkX/warm/BenchmarkX/cold"). Comparing
// within one run (not against the baseline) makes the gate insensitive to
// the machine: a slow runner scales both sides equally, but a change that
// erodes the batch speedup trips it anywhere.
type ratioSpec struct {
	num, den string
	unit     string
	factor   float64
}

func parseRatioSpec(s string) (ratioSpec, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return ratioSpec{}, fmt.Errorf("min-ratio %q: want <num>/<den>:<unit>:<factor>", s)
	}
	cut := strings.LastIndex(parts[0], "/Benchmark")
	if cut <= 0 {
		return ratioSpec{}, fmt.Errorf("min-ratio %q: benchmark pair must be <num>/<den>", s)
	}
	names := [2]string{parts[0][:cut], parts[0][cut+1:]}
	factor, err := strconv.ParseFloat(parts[2], 64)
	if err != nil || factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		return ratioSpec{}, fmt.Errorf("min-ratio %q: bad factor %q", s, parts[2])
	}
	return ratioSpec{num: names[0], den: names[1], unit: parts[1], factor: factor}, nil
}

// metricMedian extracts the named unit's median for one benchmark: the
// standard ns/op and allocs/op columns or any collected rate metric.
func (s *series) metricMedian(unit string) (float64, bool) {
	switch unit {
	case "ns/op":
		if len(s.nsOp) == 0 {
			return 0, false
		}
		return median(s.nsOp), true
	case "allocs/op":
		if len(s.allocsOp) == 0 {
			return 0, false
		}
		return median(s.allocsOp), true
	default:
		xs := s.rates[unit]
		if len(xs) == 0 {
			return 0, false
		}
		return median(xs), true
	}
}

// checkRatios evaluates -min-ratio requirements against the current run.
// A missing benchmark or metric fails: a gate that silently skips because
// the benchmark was renamed is worse than useless.
func checkRatios(current map[string]*series, specs []ratioSpec) (report string, failed bool) {
	var b strings.Builder
	for _, spec := range specs {
		num, ok := current[spec.num]
		if !ok {
			fmt.Fprintf(&b, "min-ratio %s/%s: %s MISSING from current run: FAIL\n", spec.num, spec.den, spec.num)
			failed = true
			continue
		}
		den, ok := current[spec.den]
		if !ok {
			fmt.Fprintf(&b, "min-ratio %s/%s: %s MISSING from current run: FAIL\n", spec.num, spec.den, spec.den)
			failed = true
			continue
		}
		nv, ok := num.metricMedian(spec.unit)
		if !ok {
			fmt.Fprintf(&b, "min-ratio %s/%s: %s has no %s samples: FAIL\n", spec.num, spec.den, spec.num, spec.unit)
			failed = true
			continue
		}
		dv, ok := den.metricMedian(spec.unit)
		if !ok || dv == 0 {
			fmt.Fprintf(&b, "min-ratio %s/%s: %s has no usable %s samples: FAIL\n", spec.num, spec.den, spec.den, spec.unit)
			failed = true
			continue
		}
		ratio := nv / dv
		verdict := "ok"
		if ratio < spec.factor {
			verdict = fmt.Sprintf("FAIL (want >= %gx)", spec.factor)
			failed = true
		}
		fmt.Fprintf(&b, "min-ratio %s/%s %s: %.0f / %.0f = %.2fx %s\n",
			spec.num, spec.den, spec.unit, nv, dv, ratio, verdict)
	}
	return b.String(), failed
}
