package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"baywatch/internal/faultinject"
	"baywatch/internal/proxylog"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
)

// testdata/golden_funnel.json was captured at commit fc66f44, where the
// batch back half was the separate analyze function, by running this test
// there with -update-golden. It pins the unified core to that
// implementation rather than to itself: regenerate it only for a change
// that means to move the funnel, never for a refactor.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_funnel.json from the current implementation")

type goldenPair struct {
	Source, Destination string
	Score               float64
}

// goldenFunnel is the comparable part of a Result: the funnel counters,
// the ranked report, and the degraded-mode accounting.
type goldenFunnel struct {
	Stats     Stats
	Reported  []goldenPair
	Errors    []CandidateError
	Truncated []TruncatedPair
	Degraded  bool
}

func funnelOf(res *Result) goldenFunnel {
	g := goldenFunnel{Stats: res.Stats, Errors: res.Errors, Truncated: res.Truncated, Degraded: res.Degraded}
	g.Stats.ExtractTime, g.Stats.PopularityTime, g.Stats.DetectTime, g.Stats.RankTime = 0, 0, 0, 0
	for _, c := range res.Reported {
		g.Reported = append(g.Reported, goldenPair{c.Source, c.Destination, c.Score})
	}
	return g
}

// sameFunnel compares through JSON so nil and empty lists are one thing;
// float64 scores round-trip exactly.
func sameFunnel(t *testing.T, name string, got, want goldenFunnel) {
	t.Helper()
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	var g, w any
	_ = json.Unmarshal(gb, &g)
	_ = json.Unmarshal(wb, &w)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s diverges from the golden funnel:\n got %s\nwant %s", name, gb, wb)
	}
}

// failSomeDetections errors the detection of a fixed fifth of the pairs,
// chosen by a hash of the pair so the set does not depend on the order
// or the number of detections an implementation runs.
func failSomeDetections(point string) error {
	if !strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
		return nil
	}
	h := fnv.New32a()
	h.Write([]byte(point))
	if h.Sum32()%5 == 0 {
		return errors.New("injected detect failure")
	}
	return nil
}

// perDaySummaries extracts each day of the trace by itself and returns
// the summaries day 2 first: pairs active on both days appear twice, and
// the list is not in pair order.
func perDaySummaries(t *testing.T, env *testEnv) []*timeseries.ActivitySummary {
	t.Helper()
	split := env.trace.Records[0].Timestamp + 86400
	var days [2][]*proxylog.Record
	for _, r := range env.trace.Records {
		d := 0
		if r.Timestamp >= split {
			d = 1
		}
		days[d] = append(days[d], r)
	}
	var out []*timeseries.ActivitySummary
	for d := 1; d >= 0; d-- {
		sums, _, _, err := ExtractSummaries(context.Background(), RecordEvents(days[d], env.corr), 1, 0, env.cfg.MapReduce)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sums...)
	}
	return out
}

func TestGoldenFunnel(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	got := map[string]goldenFunnel{}

	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got["clean"] = funnelOf(res)

	degraded := env.cfg
	degraded.Guard.MaxEventsPerPair = 40
	SetFaultHook(failSomeDetections)
	res, err = Run(context.Background(), env.trace.Records, env.corr, degraded)
	SetFaultHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 || len(res.Truncated) == 0 {
		t.Fatalf("degraded case is vacuous: %d errors, %d truncated", len(res.Errors), len(res.Truncated))
	}
	got["degraded"] = funnelOf(res)

	// One summary per pair in pair order: what duplicate and unsorted
	// input must reduce to.
	raw := perDaySummaries(t, env)
	canonical, failed := premergePairs(raw)
	if len(failed) != 0 || len(canonical) == len(raw) {
		t.Fatalf("fixture needs cleanly merging duplicates: %d of %d left, %d failed", len(canonical), len(raw), len(failed))
	}
	sort.Slice(canonical, func(i, j int) bool {
		a, b := canonical[i], canonical[j]
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Destination < b.Destination
	})
	res, err = RunSummaries(context.Background(), canonical, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got["summaries"] = funnelOf(res)

	path := filepath.Join("testdata", "golden_funnel.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenFunnel
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		sameFunnel(t, name, got[name], w)
	}

	// Duplicate summaries of a pair merge before analysis and the result
	// comes out in pair order whatever order the input had: the raw
	// per-day list must give the canonical list's funnel. (The parent's
	// analyze counted a duplicated pair once per summary in Pairs and the
	// two whitelist counters; a pair is counted once here.)
	res, err = RunSummaries(context.Background(), raw, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameFunnel(t, "summaries (duplicates, unsorted)", funnelOf(res), want["summaries"])
}
