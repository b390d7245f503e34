package main

import (
	"fmt"
	"math"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for bwbench when runOne
// re-executes it as a run process.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		if err := runChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bwbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTail: the reported tail is the highest percentile with at least ten
// samples beyond it.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p, v float64
	}{
		{5, 50, 3},      // too few for any tail: the median
		{19, 50, 10},    // 9 beyond the median still: the median
		{21, 50, 11},    // 10 beyond p50, 5 beyond p75
		{40, 75, 30},    // 10 beyond p75
		{100, 90, 90},   // 10 beyond p90, 5 beyond p95
		{500, 95, 475},  // p99 would rest on 5 samples
		{1000, 99, 990}, // exactly 10 beyond p99
		{20000, 99.9, 19980},
	} {
		p, v := tail(seq(tc.n))
		if p != tc.p || v != tc.v {
			t.Errorf("tail of 1..%d = p%v %v, want p%v %v", tc.n, p, v, tc.p, tc.v)
		}
	}
}

// TestQuartiles pins the cut points to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles(seq(10))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{9, 1, 4, 7})
	if q1 != 1.75 || q2 != 5.5 || q3 != 8.5 {
		t.Errorf("quartiles(1,4,7,9) = %v %v %v, want 1.75 5.5 8.5", q1, q2, q3)
	}
}

// TestSelfTimes: self time is the span minus what its children cover,
// overlapping children counted once and children clipped to the parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the root
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
		{Name: "lone", Start: 200, End: 230, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 25, 30, 30, 5, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := aggregate(spans)
	if l := agg["root"]; l.count != 1 || l.selfNs != 40 {
		t.Errorf("aggregate root = %+v", l)
	}
}

// TestFreshness: each event is timed from when it was due to the first
// generation covering it; an event nothing covers in time is missed.
func TestFreshness(t *testing.T) {
	ms := time.Millisecond
	// Five events: two due at 0, two at 10 ms, one at 20 ms. The appender
	// may have written them late; the due times are what count.
	due := []time.Duration{0, 0, 10 * ms, 10 * ms, 20 * ms}
	obs := []observation{
		{at: 5 * ms, covered: 0},   // a generation from before any append
		{at: 30 * ms, covered: 3},  // covers events 0..2
		{at: 35 * ms, covered: 3},  // nothing new
		{at: 70 * ms, covered: 4},  // covers event 3
		{at: 900 * ms, covered: 5}, // covers event 4, too late
	}
	delays, missed := freshness(due, obs, 500*ms)
	want := []float64{30, 30, 20, 60}
	if missed != 1 || len(delays) != len(want) {
		t.Fatalf("freshness = %v missed %d, want %v missed 1", delays, missed, want)
	}
	for i := range want {
		if delays[i] != want[i] {
			t.Errorf("event %d: %v ms, want %v", i, delays[i], want[i])
		}
	}
	if _, missed := freshness(due, nil, 500*ms); missed != len(due) {
		t.Errorf("with no observation every event is missed, got %d", missed)
	}
}

func TestSlope(t *testing.T) {
	if s := slope([]float64{1, 2, 3}, []float64{5, 7, 9}); math.Abs(s-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", s)
	}
	if s := slope([]float64{4, 4}, []float64{1, 2}); s != 0 {
		t.Errorf("slope over one x = %v, want 0", s)
	}
}

// TestBenchmarkFile: BENCHMARK.json and the harness agree on the
// workloads, and the traced run fills every per-layer metric's layer.
func TestBenchmarkFile(t *testing.T) {
	bm, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the harness", i, bm.Workloads[i].Name, w.name)
		}
	}
	listed := make(map[string]bool)
	for _, m := range bm.PerLayer {
		listed[m.Name] = true
	}
	for _, l := range layers {
		for _, suffix := range []string{".count", ".busy_ms", ".share_pct"} {
			if !listed[l+suffix] {
				t.Errorf("per_layer lacks %s", l+suffix)
			}
		}
	}
}

// TestSmoke runs every workload end to end at a fiftieth of its size,
// untraced and traced: fresh processes, real daemon, correctness gates.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns run processes")
	}
	bm, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", w.name, traced), func(t *testing.T) {
				rep, err := runOne(bm, w, 5, 0.4, 0.02, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed > 0 {
					t.Errorf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.notes)
				}
				specs := bm.EndToEnd
				if traced {
					specs = bm.PerLayer
				}
				if len(rep.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(specs))
				}
				if traced {
					if r := rep.Metrics["trace_overhead_ratio"].Value; !(r > 0) {
						t.Errorf("trace_overhead_ratio %v", r)
					}
					return
				}
				for _, m := range specs {
					if v := rep.Metrics[m.Name].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", m.Name, v)
					}
				}
			})
		}
	}
}
