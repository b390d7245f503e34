package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"baywatch/internal/corpus"
	"baywatch/internal/guard"
	"baywatch/internal/langmodel"
	"baywatch/internal/novelty"
	"baywatch/internal/proxylog"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
	"baywatch/internal/whitelist"
)

// testEnv bundles the fixtures shared by the pipeline tests.
type testEnv struct {
	trace *synthetic.Trace
	corr  *proxylog.Correlator
	cfg   Config
}

func newTestEnv(t *testing.T, infections []synthetic.Infection) *testEnv {
	t.Helper()
	gen := synthetic.DefaultConfig()
	gen.Days = 2
	gen.Hosts = 60
	gen.CatalogSize = 400
	gen.BrowsingSessionsPerHostDay = 3
	gen.UpdateServices = 5
	gen.NicheServices = 3
	gen.Infections = infections
	tr, err := synthetic.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := proxylog.NewCorrelator(tr.Leases)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := langmodel.Train(corpus.PopularDomains(5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Global: whitelist.NewGlobal(tr.Catalog[:50]),
		LM:     lm,
	}
	return &testEnv{trace: tr, corr: corr, cfg: cfg}
}

func zbotInfection(clients int) synthetic.Infection {
	return synthetic.Infection{
		Family:  "Zbot",
		Clients: clients,
		Period:  180,
		Noise:   synthetic.NoiseConfig{JitterSigma: 3, MissProb: 0.05, AddProb: 0.05},
	}
}

func TestRunRequiresLanguageModel(t *testing.T) {
	if _, err := Run(context.Background(), nil, nil, Config{}); err == nil {
		t.Fatal("expected error without language model")
	}
}

func TestRunEndToEndDetectsInfection(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}

	var malDomain string
	for d, tru := range env.trace.Truth {
		if tru.Label == synthetic.LabelMalicious {
			malDomain = d
		}
	}
	found := false
	for _, c := range res.Reported {
		if c.Destination == malDomain {
			found = true
			if len(c.Detection.Kept) == 0 {
				t.Error("reported case carries no kept periods")
			}
			p := c.Detection.Kept[0].BestPeriod()
			if p < 150 || p > 210 {
				t.Errorf("detected period %v, want ~180", p)
			}
		}
	}
	if !found {
		var reported []string
		for _, c := range res.Reported {
			reported = append(reported, c.Destination)
		}
		t.Fatalf("malicious domain %q not reported; reported: %v", malDomain, reported)
	}

	// The funnel must be monotone.
	s := res.Stats
	if s.Pairs > s.InputEvents || s.AfterGlobalWhitelist > s.Pairs ||
		s.AfterLocalWhitelist > s.AfterGlobalWhitelist ||
		s.Periodic > s.AfterLocalWhitelist ||
		s.AfterTokenFilter > s.Periodic ||
		s.AfterNovelty > s.AfterTokenFilter ||
		s.Reported > s.AfterNovelty {
		t.Errorf("funnel not monotone: %+v", s)
	}
	if s.Reported == 0 {
		t.Error("nothing reported")
	}
}

func TestRunSuppressesUpdateServices(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Update services beacon from half the fleet: popularity filtering or
	// the token filter must keep them out of the report.
	for _, c := range res.Reported {
		tru := env.trace.Truth[c.Destination]
		if tru.Label == synthetic.LabelBenign && tru.Clients > env.trace.Truth[c.Destination].Clients/2 && tru.Clients > 20 {
			t.Errorf("popular update service %q reported (clients=%d)", c.Destination, tru.Clients)
		}
	}
}

func TestRunRankedOrder(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Reported); i++ {
		if res.Reported[i-1].Score < res.Reported[i].Score {
			t.Fatal("reported cases not sorted by descending score")
		}
	}
}

func TestRunNoveltySuppressionAcrossRuns(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	store := novelty.NewStore()
	cfg := env.cfg
	cfg.Novelty = store

	res1, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Stats.Reported == 0 {
		t.Fatal("first run reported nothing")
	}
	// Second run over the same data: every previously reported pair is now
	// a duplicate.
	res2, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.AfterNovelty >= res1.Stats.AfterNovelty {
		t.Errorf("novelty filter did not suppress repeats: %d vs %d",
			res2.Stats.AfterNovelty, res1.Stats.AfterNovelty)
	}
}

// TestRunDeterministic: which worker detects which H(s,d) partition never
// changes an answer. Runs at 1, 2 and 4 workers report the same ranked
// cases, scores bit for bit, through the same filter funnel.
func TestRunDeterministic(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want *Result
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs) // the detect job's default worker count
		res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.ExtractTime, res.Stats.PopularityTime, res.Stats.DetectTime, res.Stats.RankTime = 0, 0, 0, 0
		if want == nil {
			if len(res.Reported) == 0 {
				t.Fatal("nothing reported; the comparison would be vacuous")
			}
			want = res
			continue
		}
		if res.Stats != want.Stats {
			t.Fatalf("%d workers: funnel %+v, want %+v", procs, res.Stats, want.Stats)
		}
		if len(res.Reported) != len(want.Reported) {
			t.Fatalf("%d workers: %d reported, want %d", procs, len(res.Reported), len(want.Reported))
		}
		for i, a := range res.Reported {
			b := want.Reported[i]
			if a.Source != b.Source || a.Destination != b.Destination || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
				t.Fatalf("%d workers: rank %d is %s|%s %v, want %s|%s %v",
					procs, i, a.Source, a.Destination, a.Score, b.Source, b.Destination, b.Score)
			}
		}
	}
}

func TestExtractSummaries(t *testing.T) {
	recs := []*proxylog.Record{
		{Timestamp: 100, ClientIP: "10.0.0.1", Host: "a.com", Path: "/x"},
		{Timestamp: 160, ClientIP: "10.0.0.1", Host: "a.com", Path: "/y"},
		{Timestamp: 220, ClientIP: "10.0.0.1", Host: "a.com", Path: "/x"},
		{Timestamp: 100, ClientIP: "10.0.0.2", Host: "b.com", Path: "/z"},
	}
	sums, _, err := ExtractSummaries(context.Background(), RecordEvents(recs, nil), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("summaries = %d, want 2", len(sums))
	}
	var a *timeseries.ActivitySummary
	for _, s := range sums {
		if s.Destination == "a.com" {
			a = s
		}
	}
	if a == nil {
		t.Fatal("a.com summary missing")
	}
	if a.EventCount() != 3 {
		t.Errorf("EventCount = %d", a.EventCount())
	}
	if len(a.URLPaths) != 2 {
		t.Errorf("URLPaths = %v, want 2 distinct", a.URLPaths)
	}
	if a.Source != "10.0.0.1" {
		t.Errorf("Source = %q (no correlator: raw IP)", a.Source)
	}
}

func TestExtractSummariesWithCorrelator(t *testing.T) {
	corr, err := proxylog.NewCorrelator([]proxylog.Lease{
		{IP: "10.0.0.1", MAC: "aa:bb", Start: 0, End: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*proxylog.Record{
		{Timestamp: 100, ClientIP: "10.0.0.1", Host: "a.com", Path: "/x"},
		{Timestamp: 200, ClientIP: "10.0.0.1", Host: "a.com", Path: "/x"},
	}
	sums, _, err := ExtractSummaries(context.Background(), RecordEvents(recs, corr), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Source != "aa:bb" {
		t.Errorf("summaries = %+v, want MAC source", sums)
	}
}

// TestPopularityCounts pins the destination-popularity counts the core
// maintains (Sect. VII-C): distinct sources per destination over the
// distinct-source population.
func TestPopularityCounts(t *testing.T) {
	mk := func(src, dst string) *timeseries.ActivitySummary {
		as, err := timeseries.FromTimestamps(src, dst, []int64{1, 2}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	sums := []*timeseries.ActivitySummary{
		mk("s1", "popular.example"), mk("s2", "popular.example"), mk("s3", "popular.example"),
		mk("s1", "rare.example"),
		// Same pair twice (two files) must not double-count the source.
		mk("s2", "rare2.example"), mk("s2", "rare2.example"),
	}
	res, err := RunSummaries(context.Background(), sums, smallConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pairs != 5 || len(res.Candidates) != 5 {
		t.Fatalf("pairs = %d, candidates = %d, want 5 distinct pairs", res.Stats.Pairs, len(res.Candidates))
	}
	want := map[string]int{"popular.example": 3, "rare.example": 1, "rare2.example": 1}
	for _, c := range res.Candidates {
		if c.SimilarSources != want[c.Destination] {
			t.Errorf("%s: similar sources = %d, want %d", c.Destination, c.SimilarSources, want[c.Destination])
		}
		if p := float64(want[c.Destination]) / 3; c.Popularity != p {
			t.Errorf("%s: popularity = %v, want %v (3 distinct sources)", c.Destination, c.Popularity, p)
		}
	}
}

func TestRescaleAndMerge(t *testing.T) {
	mk := func(ts []int64) *timeseries.ActivitySummary {
		as, err := timeseries.FromTimestamps("s", "d", ts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	sums := []*timeseries.ActivitySummary{
		mk([]int64{0, 60, 120}),
		mk([]int64{86400, 86460}),
	}
	merged, failed, err := RescaleAndMerge(context.Background(), sums, 60, guard.Config{})
	if err != nil || failed != 0 {
		t.Fatalf("failed=%d err=%v", failed, err)
	}
	if len(merged) != 1 {
		t.Fatalf("merged = %d summaries, want 1", len(merged))
	}
	m := merged[0]
	if m.Scale != 60 {
		t.Errorf("Scale = %d", m.Scale)
	}
	if m.EventCount() != 5 {
		t.Errorf("EventCount = %d, want 5", m.EventCount())
	}
}

// TestRescaleAndMergeIndependentOfWorkers: a pair's summaries merge in
// input order and the merged pairs come back in one order, whatever the
// parallelism — the URL paths a coarse pass tags events with included.
func TestRescaleAndMergeIndependentOfWorkers(t *testing.T) {
	var sums []*timeseries.ActivitySummary
	for day := int64(0); day < 3; day++ {
		for _, src := range []string{"a", "b", "s", "c"} {
			as, err := timeseries.FromTimestamps(src, "d", []int64{day * 86400, day*86400 + 60}, 1)
			if err != nil {
				t.Fatal(err)
			}
			as.AddURLPath(fmt.Sprintf("/day%d", day))
			sums = append(sums, as)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want []*timeseries.ActivitySummary
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs) // the job's default worker count
		merged, _, err := RescaleAndMerge(context.Background(), sums, 60, guard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = merged
			for _, m := range merged {
				if got := fmt.Sprint(m.URLPaths); got != "[/day0 /day1 /day2]" {
					t.Fatalf("%s|%s: URL paths %s, want the days in input order", m.Source, m.Destination, got)
				}
			}
			continue
		}
		if !reflect.DeepEqual(merged, want) {
			t.Fatalf("%d workers: merged summaries differ from 1 worker's", procs)
		}
	}
}

func TestFilterStageStrings(t *testing.T) {
	for s := StageNone; s <= StageRankThreshold; s++ {
		if s.String() == "" {
			t.Errorf("stage %d has empty string", s)
		}
	}
	if FilterStage(99).String() == "" {
		t.Error("unknown stage should stringify")
	}
}
