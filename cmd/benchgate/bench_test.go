package main

import (
	"strings"
	"testing"
)

const sampleOut = `goos: linux
goarch: amd64
pkg: baywatch/internal/dsp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPeriodogram_4096-8         	    5000	    200000 ns/op	      16 B/op	       2 allocs/op
BenchmarkPeriodogram_4096-8         	    5000	    220000 ns/op	      16 B/op	       2 allocs/op
BenchmarkPeriodogram_4096-8         	    5000	    210000 ns/op	      16 B/op	       2 allocs/op
BenchmarkAutocorrelationScratch_4096-8  	   10000	    100000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	baywatch/internal/dsp	3.1s
`

func TestParseBench(t *testing.T) {
	runs, err := parseBench(sampleOut)
	if err != nil {
		t.Fatal(err)
	}
	pg := runs["BenchmarkPeriodogram_4096"]
	if pg == nil {
		t.Fatal("BenchmarkPeriodogram_4096 not parsed (GOMAXPROCS suffix not stripped?)")
	}
	if len(pg.nsOp) != 3 {
		t.Fatalf("got %d repetitions, want 3", len(pg.nsOp))
	}
	if m := median(pg.nsOp); m != 210000 {
		t.Errorf("median ns/op = %v, want 210000", m)
	}
	acf := runs["BenchmarkAutocorrelationScratch_4096"]
	if acf == nil || len(acf.allocsOp) != 1 || acf.allocsOp[0] != 0 {
		t.Errorf("allocs/op not parsed: %+v", acf)
	}
}

func TestMedianEven(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 0 B/op 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1050 ns/op 0 B/op 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if failed {
		t.Errorf("5%% growth under a 10%% threshold must pass:\n%s", report)
	}
}

func TestCompareTimeRegressionFails(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 0 B/op 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1200 ns/op 0 B/op 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "FAIL") {
		t.Errorf("20%% ns/op growth must fail:\n%s", report)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 0 B/op 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1000 ns/op 64 B/op 1 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "allocs/op regressed") {
		t.Errorf("any allocs/op growth must fail:\n%s", report)
	}
}

func TestCompareAllocSlackAbsorbsPoolJitter(t *testing.T) {
	// Macro benchmarks with hundreds of allocs/op get 2% slack (GC
	// clearing sync.Pools makes them jitter by a few allocations)...
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 48728 B/op 272 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1000 ns/op 49280 B/op 273 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if failed {
		t.Errorf("+1 alloc on a 272-alloc baseline must pass:\n%s", report)
	}
	// ...but growth beyond the slack still fails.
	curr, _ = parseBench("BenchmarkX-8 100 1000 ns/op 50000 B/op 280 allocs/op\n")
	report, failed = compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "allocs/op regressed") {
		t.Errorf("+8 allocs on a 272-alloc baseline must fail:\n%s", report)
	}
	// Small-alloc benchmarks (the zero-allocation hot path) get no slack.
	base, _ = parseBench("BenchmarkY-8 100 1000 ns/op 0 B/op 2 allocs/op\n")
	curr, _ = parseBench("BenchmarkY-8 100 1000 ns/op 64 B/op 3 allocs/op\n")
	report, failed = compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "allocs/op regressed") {
		t.Errorf("+1 alloc on a 2-alloc baseline must fail:\n%s", report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op\nBenchmarkY-8 100 500 ns/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1000 ns/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "MISSING") {
		t.Errorf("a benchmark missing from the current run must fail:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 16 B/op 2 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 400 ns/op 0 B/op 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if failed {
		t.Errorf("improvements must pass:\n%s", report)
	}
}

// --- malformed-output hardening -----------------------------------------
// A gate that passes vacuously on garbage input is worse than no gate;
// these cases pin the loud-failure behavior.

func TestParseBenchRejectsNaN(t *testing.T) {
	_, err := parseBench("BenchmarkX-8 100 NaN ns/op 0 B/op 0 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN ns/op must be rejected, got err = %v", err)
	}
}

func TestParseBenchRejectsInf(t *testing.T) {
	_, err := parseBench("BenchmarkX-8 100 1000 ns/op +Inf allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("Inf allocs/op must be rejected, got err = %v", err)
	}
}

func TestParseBenchRejectsZeroRepetitions(t *testing.T) {
	_, err := parseBench("BenchmarkX-8 0 1000 ns/op 0 B/op 0 allocs/op\n")
	if err == nil || !strings.Contains(err.Error(), "zero repetitions") {
		t.Errorf("an iteration count of 0 must be rejected, got err = %v", err)
	}
}

func TestParseBenchRejectsBadIterationCount(t *testing.T) {
	_, err := parseBench("BenchmarkX-8 oops 1000 ns/op\n")
	if err == nil || !strings.Contains(err.Error(), "bad iteration count") {
		t.Errorf("a non-numeric iteration count must be rejected, got err = %v", err)
	}
}

func TestCompareMissingAllocsColumnFails(t *testing.T) {
	// Baseline tracks allocations; the current run was made without
	// -benchmem. Skipping the allocation gate silently would let an
	// alloc regression through, so this must fail.
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op 0 B/op 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 100 1000 ns/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "allocs/op column missing") {
		t.Errorf("current run without an allocs/op column must fail:\n%s", report)
	}
}

func TestCompareNoSamplesFails(t *testing.T) {
	// A series with no ns/op samples (e.g. a line carrying only B/op)
	// would otherwise compare 0 against 0 and pass vacuously.
	base, _ := parseBench("BenchmarkX-8 100 1000 ns/op\n")
	curr := map[string]*series{"BenchmarkX": {}}
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "no ns/op samples") {
		t.Errorf("empty current sample list must fail:\n%s", report)
	}
}

// --- rate metrics and in-run ratio gates --------------------------------

func TestParseBenchCollectsRates(t *testing.T) {
	runs, err := parseBench("BenchmarkX-8 1 1000 ns/op 1234 pairs/s 0 B/op 0 allocs/op\n" +
		"BenchmarkX-8 1 1000 ns/op 1250 pairs/s 0 B/op 0 allocs/op\n")
	if err != nil {
		t.Fatal(err)
	}
	s := runs["BenchmarkX"]
	if s == nil || len(s.rates["pairs/s"]) != 2 {
		t.Fatalf("pairs/s not collected: %+v", s)
	}
	if m := median(s.rates["pairs/s"]); m != 1242 {
		t.Errorf("median pairs/s = %v, want 1242", m)
	}
}

func TestCompareRateWithinThresholdPasses(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 1 1000 ns/op 1000 pairs/s 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 1 1000 ns/op 950 pairs/s 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if failed {
		t.Errorf("5%% rate drop under a 10%% threshold must pass:\n%s", report)
	}
}

func TestCompareRateRegressionFails(t *testing.T) {
	base, _ := parseBench("BenchmarkX-8 1 1000 ns/op 1000 pairs/s 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 1 1000 ns/op 800 pairs/s 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "pairs/s regressed") {
		t.Errorf("20%% rate drop must fail:\n%s", report)
	}
}

func TestCompareMissingRateMetricFails(t *testing.T) {
	// Baseline tracks pairs/s but the current run dropped the metric
	// (ReportMetric call removed?) — the gate must not skip silently.
	base, _ := parseBench("BenchmarkX-8 1 1000 ns/op 1000 pairs/s 0 allocs/op\n")
	curr, _ := parseBench("BenchmarkX-8 1 1000 ns/op 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed || !strings.Contains(report, "pairs/s metric missing") {
		t.Errorf("dropped rate metric must fail:\n%s", report)
	}
}

func TestCompareNoiseOverrideWidensBand(t *testing.T) {
	base, _ := parseBench("BenchmarkMacro-8 1 1000 ns/op 1000 pairs/s 0 allocs/op\n" +
		"BenchmarkTight-8 100 1000 ns/op 0 allocs/op\n")
	// 20% slower and 20% lower rate: fails at the default 10% band...
	curr, _ := parseBench("BenchmarkMacro-8 1 1200 ns/op 800 pairs/s 0 allocs/op\n" +
		"BenchmarkTight-8 100 1000 ns/op 0 allocs/op\n")
	report, failed := compare(base, curr, 0.10, nil)
	if !failed {
		t.Errorf("20%% drift without a noise override must fail:\n%s", report)
	}
	// ...passes with a 35% override on just that benchmark...
	report, failed = compare(base, curr, 0.10, map[string]float64{"BenchmarkMacro": 0.35})
	if failed {
		t.Errorf("20%% drift under a 35%% noise override must pass:\n%s", report)
	}
	// ...and the override does not loosen other benchmarks.
	curr, _ = parseBench("BenchmarkMacro-8 1 1000 ns/op 1000 pairs/s 0 allocs/op\n" +
		"BenchmarkTight-8 100 1200 ns/op 0 allocs/op\n")
	report, failed = compare(base, curr, 0.10, map[string]float64{"BenchmarkMacro": 0.35})
	if !failed || !strings.Contains(report, "BenchmarkTight") {
		t.Errorf("non-overridden benchmark must keep the tight band:\n%s", report)
	}
}

func TestParseNoiseSpec(t *testing.T) {
	name, threshold, err := parseNoiseSpec("BenchmarkDetectPerPair:0.35")
	if err != nil || name != "BenchmarkDetectPerPair" || threshold != 0.35 {
		t.Errorf("got (%q, %v, %v)", name, threshold, err)
	}
	for _, bad := range []string{"", "Bench", "Bench:", ":0.3", "Bench:0", "Bench:1.5", "Bench:-0.1", "Bench:NaN"} {
		if _, _, err := parseNoiseSpec(bad); err == nil {
			t.Errorf("noise spec %q must be rejected", bad)
		}
	}
}

func TestParseRatioSpec(t *testing.T) {
	spec, err := parseRatioSpec("BenchmarkDetectBatch/BenchmarkDetectPerPair:pairs/s:2")
	if err != nil {
		t.Fatal(err)
	}
	want := ratioSpec{num: "BenchmarkDetectBatch", den: "BenchmarkDetectPerPair", unit: "pairs/s", factor: 2}
	if spec != want {
		t.Errorf("spec = %+v, want %+v", spec, want)
	}
	sub, err := parseRatioSpec("BenchmarkRestart/warm/BenchmarkRestart/cold:restarts/s:2")
	if want := (ratioSpec{num: "BenchmarkRestart/warm", den: "BenchmarkRestart/cold", unit: "restarts/s", factor: 2}); err != nil || sub != want {
		t.Errorf("sub-benchmark spec = %+v (err %v), want %+v", sub, err, want)
	}
	for _, bad := range []string{"", "BenchmarkA/BenchmarkB:pairs/s", "BenchmarkA:pairs/s:2", "/BenchmarkB:pairs/s:2", "BenchmarkA/:pairs/s:2", "BenchmarkA/warm:pairs/s:2",
		"BenchmarkA/BenchmarkB:pairs/s:0", "BenchmarkA/BenchmarkB:pairs/s:-1", "BenchmarkA/BenchmarkB:pairs/s:NaN"} {
		if _, err := parseRatioSpec(bad); err == nil {
			t.Errorf("spec %q must be rejected", bad)
		}
	}
}

func TestCheckRatiosPassAndFail(t *testing.T) {
	curr, _ := parseBench("BenchmarkBatch-8 1 1000 ns/op 3000 pairs/s\n" +
		"BenchmarkSolo-8 1 1000 ns/op 1000 pairs/s\n")
	spec := ratioSpec{num: "BenchmarkBatch", den: "BenchmarkSolo", unit: "pairs/s", factor: 2}
	report, failed := checkRatios(curr, []ratioSpec{spec})
	if failed {
		t.Errorf("3x speedup under a 2x requirement must pass:\n%s", report)
	}
	spec.factor = 4
	report, failed = checkRatios(curr, []ratioSpec{spec})
	if !failed || !strings.Contains(report, "FAIL") {
		t.Errorf("3x speedup under a 4x requirement must fail:\n%s", report)
	}

	// Sub-benchmarks are series of their own, named as `go test` prints them.
	curr, _ = parseBench("BenchmarkRestart/warm-2 3 1000 ns/op 9 restarts/s\n" +
		"BenchmarkRestart/cold-2 3 1000 ns/op 3 restarts/s\n")
	sub, err := parseRatioSpec("BenchmarkRestart/warm/BenchmarkRestart/cold:restarts/s:2")
	if err != nil {
		t.Fatal(err)
	}
	if report, failed = checkRatios(curr, []ratioSpec{sub}); failed {
		t.Errorf("3x between sub-benchmarks under a 2x requirement must pass:\n%s", report)
	}
}

func TestCheckRatiosMissingFails(t *testing.T) {
	curr, _ := parseBench("BenchmarkBatch-8 1 1000 ns/op 3000 pairs/s\n")
	// Denominator benchmark absent entirely.
	report, failed := checkRatios(curr, []ratioSpec{{num: "BenchmarkBatch", den: "BenchmarkSolo", unit: "pairs/s", factor: 2}})
	if !failed || !strings.Contains(report, "MISSING") {
		t.Errorf("missing denominator benchmark must fail:\n%s", report)
	}
	// Benchmark present but the metric was never reported.
	curr2, _ := parseBench("BenchmarkBatch-8 1 1000 ns/op 3000 pairs/s\nBenchmarkSolo-8 1 1000 ns/op\n")
	report, failed = checkRatios(curr2, []ratioSpec{{num: "BenchmarkBatch", den: "BenchmarkSolo", unit: "pairs/s", factor: 2}})
	if !failed || !strings.Contains(report, "no usable pairs/s samples") {
		t.Errorf("missing rate metric on denominator must fail:\n%s", report)
	}
}

func TestCheckRatiosNsOpUnit(t *testing.T) {
	// ns/op ratios work too (lower-is-better callers just invert the pair).
	curr, _ := parseBench("BenchmarkA-8 1 4000 ns/op\nBenchmarkB-8 1 1000 ns/op\n")
	report, failed := checkRatios(curr, []ratioSpec{{num: "BenchmarkA", den: "BenchmarkB", unit: "ns/op", factor: 3}})
	if failed {
		t.Errorf("4x ns/op ratio under a 3x requirement must pass:\n%s", report)
	}
}
