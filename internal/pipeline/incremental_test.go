package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"baywatch/internal/core"
	"baywatch/internal/corpus"
	"baywatch/internal/faultinject"
	"baywatch/internal/langmodel"
	"baywatch/internal/mapreduce"
	"baywatch/internal/novelty"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
	"baywatch/internal/whitelist"
)

// incHarness drives a standing Incremental and, after every tick, runs
// the full-recompute reference — RunSummaries, i.e. a fresh Incremental
// ticked once from empty — over the complete current pair set with an
// identically-historied novelty store, then asserts the two results are
// bit-identical: candidates, detections, errors, reported ranking and the
// whole funnel. This is the differential test that pins the dirty-only
// tick contract.
type incHarness struct {
	t     *testing.T
	cfg   Config
	inc   *Incremental
	store *novelty.Store
	sums  map[PairRef]*timeseries.ActivitySummary
	tick  int
}

func newIncHarness(t *testing.T) *incHarness {
	t.Helper()
	lm, err := langmodel.Train(corpus.PopularDomains(2000, 42))
	if err != nil {
		t.Fatal(err)
	}
	det := core.DefaultConfig()
	det.Permutations = 5 // keep each differential replay cheap
	store := novelty.NewStore()
	cfg := Config{
		Global:   whitelist.NewGlobal([]string{"allowed.example"}),
		LM:       lm,
		Detector: det,
		Novelty:  store,
	}
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &incHarness{
		t:     t,
		cfg:   cfg,
		inc:   inc,
		store: store,
		sums:  make(map[PairRef]*timeseries.ActivitySummary),
	}
}

// step applies one delta through both paths and compares the results.
// The full recompute runs first, on a clone of the novelty store taken
// before either path reports (both then mark the same reported pairs, so
// the histories stay converged for the next tick).
func (h *incHarness) step(changed []*timeseries.ActivitySummary, removed []PairRef) *Result {
	h.t.Helper()
	h.tick++
	for _, r := range removed {
		delete(h.sums, r)
	}
	for _, as := range changed {
		h.sums[PairRef{Source: as.Source, Destination: as.Destination}] = as
	}

	fullCfg := h.cfg
	fullCfg.Novelty = h.store.Clone()
	var all []*timeseries.ActivitySummary
	for _, as := range h.sums {
		all = append(all, as)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Source != all[j].Source {
			return all[i].Source < all[j].Source
		}
		return all[i].Destination < all[j].Destination
	})
	want, err := RunSummaries(context.Background(), all, fullCfg)
	if err != nil {
		h.t.Fatalf("tick %d: full recompute: %v", h.tick, err)
	}
	got, err := h.inc.Tick(context.Background(), changed, removed)
	if err != nil {
		h.t.Fatalf("tick %d: incremental: %v", h.tick, err)
	}
	h.compare(want, got)
	return got
}

func (h *incHarness) compare(want, got *Result) {
	h.t.Helper()
	tick := h.tick
	if len(got.Candidates) != len(want.Candidates) {
		h.t.Fatalf("tick %d: candidates: got %d, want %d", tick, len(got.Candidates), len(want.Candidates))
	}
	for i := range want.Candidates {
		w, g := want.Candidates[i], got.Candidates[i]
		if g.Source != w.Source || g.Destination != w.Destination {
			h.t.Fatalf("tick %d: candidate %d: got %s|%s, want %s|%s",
				tick, i, g.Source, g.Destination, w.Source, w.Destination)
		}
		if g.SuppressedBy != w.SuppressedBy {
			h.t.Errorf("tick %d: %s->%s: stage %v, want %v", tick, g.Source, g.Destination, g.SuppressedBy, w.SuppressedBy)
		}
		if g.LMScore != w.LMScore || g.Popularity != w.Popularity || g.SimilarSources != w.SimilarSources {
			h.t.Errorf("tick %d: %s->%s: indicators (%v,%v,%d), want (%v,%v,%d)", tick, g.Source, g.Destination,
				g.LMScore, g.Popularity, g.SimilarSources, w.LMScore, w.Popularity, w.SimilarSources)
		}
		if g.Score != w.Score {
			h.t.Errorf("tick %d: %s->%s: score %v, want %v", tick, g.Source, g.Destination, g.Score, w.Score)
		}
		if g.Novelty != w.Novelty {
			h.t.Errorf("tick %d: %s->%s: novelty %v, want %v", tick, g.Source, g.Destination, g.Novelty, w.Novelty)
		}
		if !reflect.DeepEqual(g.Token, w.Token) {
			h.t.Errorf("tick %d: %s->%s: token %+v, want %+v", tick, g.Source, g.Destination, g.Token, w.Token)
		}
		if !reflect.DeepEqual(g.Detection, w.Detection) {
			h.t.Errorf("tick %d: %s->%s: detection mismatch", tick, g.Source, g.Destination)
		}
	}
	if !reflect.DeepEqual(got.Errors, want.Errors) {
		h.t.Errorf("tick %d: errors: got %+v, want %+v", tick, got.Errors, want.Errors)
	}
	if len(got.Reported) != len(want.Reported) {
		h.t.Fatalf("tick %d: reported: got %d, want %d", tick, len(got.Reported), len(want.Reported))
	}
	for i := range want.Reported {
		w, g := want.Reported[i], got.Reported[i]
		if g.Source != w.Source || g.Destination != w.Destination || g.Score != w.Score {
			h.t.Errorf("tick %d: reported %d: got %s->%s (%v), want %s->%s (%v)",
				tick, i, g.Source, g.Destination, g.Score, w.Source, w.Destination, w.Score)
		}
	}
	if got.Degraded != want.Degraded {
		h.t.Errorf("tick %d: degraded %v, want %v", tick, got.Degraded, want.Degraded)
	}
	ws, gs := want.Stats, got.Stats
	// Durations differ by construction; everything else must match.
	ws.ExtractTime, ws.PopularityTime, ws.DetectTime, ws.RankTime = 0, 0, 0, 0
	gs.ExtractTime, gs.PopularityTime, gs.DetectTime, gs.RankTime = 0, 0, 0, 0
	if gs != ws {
		h.t.Errorf("tick %d: stats:\n got %+v\nwant %+v", tick, gs, ws)
	}
}

// beaconSummary builds a cleanly periodic series (period seconds apart)
// that the detector reliably flags.
func beaconSummary(t *testing.T, src, dst string, start int64, period int64, n int, paths ...string) *timeseries.ActivitySummary {
	t.Helper()
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = start + int64(i)*period
	}
	as, err := timeseries.FromTimestamps(src, dst, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		as.AddURLPath(p)
	}
	return as
}

// sparseSummary builds an aperiodic under-sampled series (below
// MinEvents) that stops at the periodicity filter.
func sparseSummary(t *testing.T, src, dst string, start int64, n int) *timeseries.ActivitySummary {
	t.Helper()
	ts := make([]int64, n)
	gap := int64(311)
	for i := range ts {
		ts[i] = start + int64(i)*gap + int64(i*i)*7
	}
	as, err := timeseries.FromTimestamps(src, dst, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestIncrementalMatchesFullRecompute(t *testing.T) {
	h := newIncHarness(t)
	base := int64(1_700_000_000)

	// Tick 1 — bulk load: two beacons sharing a destination (novelty
	// interplay), a global-whitelisted pair, background noise, and a
	// destination one source short of the local-whitelist floor.
	var bulk []*timeseries.ActivitySummary
	bulk = append(bulk,
		beaconSummary(t, "hostA", "beacon-dst.example", base, 60, 64, "/gate.php?x=1"),
		beaconSummary(t, "hostB", "beacon-dst.example", base+7, 60, 64, "/gate.php?x=2"),
		beaconSummary(t, "hostA", "allowed.example", base, 60, 64),
	)
	for i := 0; i < 8; i++ {
		bulk = append(bulk, sparseSummary(t, fmt.Sprintf("host%02d", i), fmt.Sprintf("bg%d.example", i), base, 5))
	}
	for i := 0; i < 9; i++ {
		bulk = append(bulk, sparseSummary(t, fmt.Sprintf("pop%02d", i), "popular.example", base, 5))
	}
	res := h.step(bulk, nil)
	if len(res.Reported) == 0 {
		t.Fatal("bulk tick reported nothing; scenario needs a detected beacon")
	}

	// Tick 2 — no delta. The previous tick's reports mutated the novelty
	// store, so reported pairs flip to Duplicate and dest-sharing pairs
	// re-evaluate; everything else is served from cache.
	h.step(nil, nil)

	// Tick 3 — a tenth source contacts popular.example, crossing the
	// local-whitelist floor: ten pairs flip to StageLocalWhitelist and the
	// source population changes, re-evaluating every pair's popularity.
	h.step([]*timeseries.ActivitySummary{sparseSummary(t, "pop09", "popular.example", base, 5)}, nil)

	// Tick 4 — one beacon's history grows (the dirty-pair path: fresh
	// summary, re-detection, re-indication).
	h.step([]*timeseries.ActivitySummary{
		beaconSummary(t, "hostA", "beacon-dst.example", base, 60, 96, "/gate.php?x=1"),
	}, nil)

	// Tick 5 — retention evicts pairs: popular.example drops back below
	// the floor (its remaining pairs need detection for the first time),
	// and a background pair disappears outright.
	h.step(nil, []PairRef{
		{Source: "pop09", Destination: "popular.example"},
		{Source: "host03", Destination: "bg3.example"},
	})

	// Tick 6 — quiescent: verdicts have settled, nothing is dirty.
	h.step(nil, nil)

	if got := h.inc.Pairs(); got != len(h.sums) {
		t.Errorf("standing pairs = %d, want %d", got, len(h.sums))
	}
}

// TestIncrementalRetriesErroredPairs pins the retry contract: a pair
// whose detection or indication failed is re-attempted on every tick,
// exactly like the full pipeline re-attempts it on every run — so once
// the fault clears, the incremental result converges with a clean
// recompute without the pair being marked dirty again.
func TestIncrementalRetriesErroredPairs(t *testing.T) {
	h := newIncHarness(t)
	base := int64(1_700_000_000)

	bulk := []*timeseries.ActivitySummary{
		beaconSummary(t, "hostA", "beacon-dst.example", base, 60, 64, "/gate.php"),
		beaconSummary(t, "hostB", "other-dst.example", base, 90, 48, "/ping"),
		sparseSummary(t, "hostC", "bg.example", base, 5),
	}

	// While the hook is installed both paths fail the same pair the same
	// way, so the differential comparison still holds.
	detKey := string(faultinject.PointPipelineDetect.Keyed("hostA|beacon-dst.example"))
	indKey := string(faultinject.PointPipelineIndication.Keyed("hostB|other-dst.example"))
	SetFaultHook(func(point string) error {
		if point == detKey {
			return fmt.Errorf("injected detect fault")
		}
		if point == indKey {
			return fmt.Errorf("injected indication fault")
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })

	res := h.step(bulk, nil)
	if !res.Degraded || len(res.Errors) != 2 {
		t.Fatalf("faulted tick: degraded=%v errors=%+v, want both injected failures", res.Degraded, res.Errors)
	}
	stages := map[string]bool{}
	for _, e := range res.Errors {
		stages[e.Stage] = true
	}
	if !stages["detect"] || !stages["indication"] {
		t.Fatalf("errors = %+v, want one detect and one indication failure", res.Errors)
	}

	// Fault persists: the retry fails again, identically to a full rerun.
	res = h.step(nil, nil)
	if len(res.Errors) != 2 {
		t.Fatalf("second faulted tick: errors = %+v", res.Errors)
	}

	// Fault clears: with no new dirty marks, the next tick must retry both
	// pairs and converge with the clean recompute.
	SetFaultHook(nil)
	res = h.step(nil, nil)
	if res.Degraded || len(res.Errors) != 0 {
		t.Fatalf("recovered tick still degraded: %+v", res.Errors)
	}
	found := false
	for _, c := range res.Reported {
		if c.Source == "hostA" && c.Destination == "beacon-dst.example" {
			found = true
		}
	}
	if !found {
		t.Error("recovered beacon pair not reported after retry")
	}
}

// TestIncrementalRejectsMissingLM mirrors the Run contract.
func TestIncrementalRejectsMissingLM(t *testing.T) {
	if _, err := NewIncremental(Config{}); err == nil || !strings.Contains(err.Error(), "language model") {
		t.Fatalf("err = %v, want language-model requirement", err)
	}
}

// TestIncrementalIdleTickRunsNoDetection pins the one per-pair detection
// cache: after a tick has analyzed every pair, a tick with an empty delta
// answers every unchanged pair from the standing state — zero detection
// runs — and returns the identical result.
func TestIncrementalIdleTickRunsNoDetection(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	want, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Reported == 0 {
		t.Fatal("nothing reported; the comparison would be vacuous")
	}
	sums, _, err := ExtractSummaries(context.Background(), RecordEvents(env.trace.Records, env.corr), 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	var detections atomic.Int64
	SetFaultHook(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			detections.Add(1)
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })

	inc, err := NewIncremental(env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := inc.Tick(context.Background(), sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameFunnel(t, "loading tick", funnelOf(cold), funnelOf(want))
	if n := detections.Load(); n != int64(want.Stats.AfterLocalWhitelist) {
		t.Fatalf("loading tick ran %d detections, want one per pair past the whitelists (%d)", n, want.Stats.AfterLocalWhitelist)
	}

	detections.Store(0)
	idle, err := inc.Tick(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := detections.Load(); n != 0 {
		t.Fatalf("idle tick ran %d detection(s); every unchanged pair must answer from the standing state", n)
	}
	sameFunnel(t, "idle tick", funnelOf(idle), funnelOf(want))
}

// TestIncrementalBulkDeltasScale loads 200k pairs in reverse pair order,
// evicts half of them in one tick and loads them again interleaved with
// the survivors: each of these is O(n log n). An implementation that
// shifts the canonical order once per inserted or removed pair moves on
// the order of 10^10 slice elements here and does not finish inside the
// package's test timeout.
func TestIncrementalBulkDeltasScale(t *testing.T) {
	const n = 200000
	sums := make([]*timeseries.ActivitySummary, n)
	var evict []PairRef
	var reload []*timeseries.ActivitySummary
	for j := range sums {
		src := fmt.Sprintf("h%06d", n-1-j)
		as, err := timeseries.FromTimestamps(src, "allowed.example", []int64{1, 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		sums[j] = as
		if j%2 == 0 {
			evict = append(evict, PairRef{Source: src, Destination: "allowed.example"})
			reload = append(reload, as)
		}
	}
	h := newIncHarness(t)
	tick := func(changed []*timeseries.ActivitySummary, removed []PairRef, wantPairs int) {
		t.Helper()
		res, err := h.inc.Tick(context.Background(), changed, removed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Pairs != wantPairs || h.inc.Pairs() != wantPairs || res.Stats.InputEvents != 2*wantPairs {
			t.Fatalf("pairs = %d (standing %d), events = %d, want %d pairs", res.Stats.Pairs, h.inc.Pairs(), res.Stats.InputEvents, wantPairs)
		}
		if !slices.IsSortedFunc(h.inc.order, comparePairs) {
			t.Fatal("standing order is not in pair order")
		}
	}
	tick(sums, nil, n)
	tick(nil, evict, n/2)
	tick(reload, nil, n)
}

// TestDetectBudgetDropsPairWithoutVerdict: a pair the detect job sheds to
// its failure budget has no detection result, so it must not surface as
// a candidate (let alone a reported one) — the run is Degraded through
// FailedPairs, and a standing pipeline detects the pair at the next tick.
func TestDetectBudgetDropsPairWithoutVerdict(t *testing.T) {
	h := newIncHarness(t)
	cfg := h.cfg
	cfg.Guard.FailureBudget = 1
	inc, err := NewIncremental(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := int64(1_700_000_000)
	sums := []*timeseries.ActivitySummary{
		beaconSummary(t, "hostA", "beacon-dst.example", base, 60, 64, "/gate.php"),
		sparseSummary(t, "hostC", "bg.example", base, 5),
	}
	sched := faultinject.New(0)
	sched.FailAt(faultinject.PointMapreduceTask.Keyed("hostA|beacon-dst.example"), 1, errors.New("injected task failure"))
	mapreduce.SetFaultHook(sched.Hook())
	t.Cleanup(func() { mapreduce.SetFaultHook(nil) })

	res, err := inc.Tick(context.Background(), sums, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Stats.FailedPairs != 1 {
		t.Fatalf("degraded=%v failed pairs=%d, want the shed pair accounted", res.Degraded, res.Stats.FailedPairs)
	}
	if res.Stats.AfterLocalWhitelist != 2 || len(res.Candidates) != 1 || len(res.Errors) != 0 {
		t.Fatalf("after whitelists %d, candidates %d, errors %d: want 2 pairs, 1 with a verdict",
			res.Stats.AfterLocalWhitelist, len(res.Candidates), len(res.Errors))
	}
	for _, c := range res.Candidates {
		if c.Detection == nil {
			t.Fatalf("candidate %s->%s carries no detection", c.Source, c.Destination)
		}
	}

	mapreduce.SetFaultHook(nil)
	res, err = inc.Tick(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Candidates) != 2 {
		t.Fatalf("next tick: degraded=%v candidates=%d, want the shed pair detected", res.Degraded, len(res.Candidates))
	}
}

// TestTickParksUnmergeablePair: summaries of one pair that cannot merge
// (scale mismatch) isolate that pair under StageError on its first
// summary while other pairs are analyzed
// normally; the pair stays parked, not re-detected on a partial history,
// until its next delta.
func TestTickParksUnmergeablePair(t *testing.T) {
	h := newIncHarness(t)
	base := int64(1_700_000_000)
	good := beaconSummary(t, "h1", "ok.example", base, 60, 64, "/gate.php")
	badA := beaconSummary(t, "h2", "bad.example", base, 60, 64, "/gate.php")
	badB, err := timeseries.FromTimestamps("h2", "bad.example", []int64{0, 600}, 60) // scale mismatch
	if err != nil {
		t.Fatal(err)
	}
	for tick, delta := range [][]*timeseries.ActivitySummary{{badA, good, badB}, nil} {
		res, err := h.inc.Tick(context.Background(), delta, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Pairs != 2 || len(res.Candidates) != 2 || len(res.Errors) != 1 || !res.Degraded {
			t.Fatalf("tick %d: pairs=%d candidates=%d errors=%+v degraded=%v", tick, res.Stats.Pairs, len(res.Candidates), res.Errors, res.Degraded)
		}
		if e := res.Errors[0]; e.Source != "h2" || e.Stage != "detect" || !strings.Contains(e.Err, "scale") {
			t.Fatalf("tick %d: error record %+v, want the scale mismatch on h2", tick, e)
		}
		bad := res.Candidates[1]
		if bad.Summary != badA || bad.Detection != nil || bad.SuppressedBy != StageError {
			t.Fatalf("tick %d: parked candidate %+v, want the first summary under StageError", tick, bad)
		}
		if ok := res.Candidates[0]; ok.Source != "h1" || ok.Detection == nil || ok.SuppressedBy == StageError {
			t.Fatalf("tick %d: healthy pair mishandled: %+v", tick, ok)
		}
	}
	// A fresh delta un-parks the pair.
	res, err := h.inc.Tick(context.Background(), []*timeseries.ActivitySummary{badA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) != 0 || res.Candidates[1].Detection == nil {
		t.Fatalf("fresh delta left the pair parked: %+v", res.Errors)
	}
}
