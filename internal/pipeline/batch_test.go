package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"baywatch/internal/core"
	"baywatch/internal/mapreduce"
	"baywatch/internal/timeseries"
)

// batchSummaries builds a corpus mixing beacon-like pairs at shared shapes,
// noisy pairs, degenerate few-event pairs, and duplicate summaries of one
// pair (exercising the pre-merge pass).
func batchSummaries(t *testing.T, n int) []*timeseries.ActivitySummary {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	mk := func(src, dst string, ts []int64) *timeseries.ActivitySummary {
		as, err := timeseries.FromTimestamps(src, dst, ts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	var out []*timeseries.ActivitySummary
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0: // same-bucket beacons: stride 60, one shifted event each
			ts := make([]int64, 0, 40)
			for k := 0; k < 40; k++ {
				ts = append(ts, int64(k*60))
			}
			ts[1+i%38] += 1
			out = append(out, mk(fmt.Sprintf("h%d", i), "beacon.example", ts))
		case 1: // noisy browsing
			var ts []int64
			tt := int64(0)
			for k := 0; k < 30; k++ {
				tt += int64(1 + rng.Intn(200))
				ts = append(ts, tt)
			}
			out = append(out, mk(fmt.Sprintf("h%d", i), fmt.Sprintf("web%d.example", i), ts))
		case 2: // degenerate (below MinEvents)
			out = append(out, mk(fmt.Sprintf("h%d", i), "rare.example", []int64{5, 1000}))
		default: // duplicate summaries of one pair, merged by premerge
			ts := make([]int64, 0, 20)
			for k := 0; k < 20; k++ {
				ts = append(ts, int64(k*120))
			}
			out = append(out, mk("dup-host", "dup.example", ts))
			ts2 := make([]int64, 0, 20)
			for k := 0; k < 20; k++ {
				ts2 = append(ts2, int64(2400+k*120))
			}
			out = append(out, mk("dup-host", "dup.example", ts2))
		}
	}
	return out
}

// premergePairs merges duplicate summaries of the same pair in input
// order: the reference for what the analysis core must reduce duplicate
// input to. The result keeps first-seen pair order; a pair whose merge
// fails comes back as a parked Detection on its first summary — where
// Incremental parks it — and is excluded from the merged list.
func premergePairs(summaries []*timeseries.ActivitySummary) ([]*timeseries.ActivitySummary, []Detection) {
	idx := make(map[pairKey]int, len(summaries))
	var merged, firsts []*timeseries.ActivitySummary
	var failed []Detection
	for _, as := range summaries {
		key := pairKey{Src: as.Source, Dst: as.Destination}
		i, seen := idx[key]
		if !seen {
			idx[key] = len(merged)
			merged = append(merged, as)
			firsts = append(firsts, as)
			continue
		}
		if merged[i] == nil {
			continue // the pair already failed
		}
		m, err := safeMerge(merged[i], as)
		if err != nil {
			failed = append(failed, Detection{Summary: firsts[i], Err: err})
			merged[i] = nil
			continue
		}
		merged[i] = m
	}
	out := merged[:0]
	for _, as := range merged {
		if as != nil {
			out = append(out, as)
		}
	}
	return out, failed
}

// sortDetections orders detections canonically by (source, destination).
func sortDetections(ds []Detection) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Summary, ds[j].Summary
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Destination < b.Destination
	})
}

// runDetect is detectBeacons in-process with no bounds and a fresh
// threshold memo.
func runDetect(t *testing.T, summaries []*timeseries.ActivitySummary, cfg core.Config) []Detection {
	t.Helper()
	ds, _, err := detectBeacons(context.Background(), summaries, cfg, mapreduce.JobConfig{}, 0, 0, core.NewThresholdMemo(0))
	if err != nil {
		t.Fatal(err)
	}
	sortDetections(ds)
	return ds
}

// TestDetectBatchDifferentialPipeline pins the detect job to the per-pair
// reference: detectBeacons (one call per pair, partitioned by H(s,d),
// sharing one threshold memo) over the pre-merged summaries must return
// exactly the Detections a sequential per-pair core.Detect produces.
func TestDetectBatchDifferentialPipeline(t *testing.T) {
	cfg := core.DefaultConfig()
	det := core.NewDetector(cfg)
	merged, failed := premergePairs(batchSummaries(t, 24))
	if len(failed) != 0 {
		t.Fatalf("fixture should premerge cleanly, got %d failures", len(failed))
	}
	got := runDetect(t, merged, cfg)

	// Reference: detect each pair solo, sort by pair.
	var want []Detection
	for _, as := range merged {
		r, derr := det.Detect(as)
		if derr != nil {
			t.Fatalf("per-pair Detect %s|%s: %v", as.Source, as.Destination, derr)
		}
		want = append(want, Detection{Summary: as, Result: r})
	}
	sortDetections(want)

	if len(got) != len(want) {
		t.Fatalf("%d detections, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("detection %d (%s|%s) errored: %v", i, got[i].Summary.Source, got[i].Summary.Destination, got[i].Err)
		}
		if got[i].Summary.Source != want[i].Summary.Source || got[i].Summary.Destination != want[i].Summary.Destination {
			t.Fatalf("detection %d is pair %s|%s, want %s|%s", i,
				got[i].Summary.Source, got[i].Summary.Destination,
				want[i].Summary.Source, want[i].Summary.Destination)
		}
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("pair %s|%s: batch result diverges from per-pair Detect",
				got[i].Summary.Source, got[i].Summary.Destination)
		}
		if !reflect.DeepEqual(got[i].Summary, want[i].Summary) {
			t.Errorf("pair %s|%s: merged summary diverges", got[i].Summary.Source, got[i].Summary.Destination)
		}
	}
}

// TestPremergeFailureParksPair pins the reference pre-merge to the
// pipeline's own parking: a pair whose duplicate summaries cannot merge
// (scale mismatch) is parked on its first summary — by premergePairs
// ahead of detectBeacons as by a tick — while the other pair is detected
// identically by both.
func TestPremergeFailureParksPair(t *testing.T) {
	h := newIncHarness(t)
	good, err := timeseries.FromTimestamps("h1", "ok.example", []int64{0, 60, 120, 180, 240, 300, 360, 420, 480}, 1)
	if err != nil {
		t.Fatal(err)
	}
	badA, err := timeseries.FromTimestamps("h2", "bad.example", []int64{0, 60, 120, 180, 240, 300, 360, 420, 480}, 1)
	if err != nil {
		t.Fatal(err)
	}
	badB, err := timeseries.FromTimestamps("h2", "bad.example", []int64{0, 600}, 60) // scale mismatch
	if err != nil {
		t.Fatal(err)
	}
	input := []*timeseries.ActivitySummary{badA, good, badB}

	merged, parked := premergePairs(input)
	if len(parked) != 1 || parked[0].Summary != badA || parked[0].Err == nil {
		t.Fatalf("failed-merge pair should be parked on its first summary: %+v", parked)
	}
	ds := runDetect(t, merged, h.cfg.Detector)
	if len(ds) != 1 || ds[0].Summary != good || ds[0].Err != nil || ds[0].Result == nil {
		t.Fatalf("good pair mishandled: %+v", ds)
	}

	res, err := h.inc.Tick(context.Background(), input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("%d candidates, want 2", len(res.Candidates))
	}
	// Candidates come in pair order: h1 before h2.
	if c := res.Candidates[0]; c.Summary != good || !reflect.DeepEqual(c.Detection, ds[0].Result) {
		t.Errorf("tick detected the good pair differently: %+v", c)
	}
	if c := res.Candidates[1]; c.Summary != badA || c.SuppressedBy != StageError || res.Errors[0].Err != parked[0].Err.Error() {
		t.Errorf("tick parked the pair differently: %+v, errors %+v", c, res.Errors)
	}
}
