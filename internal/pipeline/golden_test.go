package pipeline

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"baywatch/internal/faultinject"
	"baywatch/internal/proxylog"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
	"baywatch/internal/whitelist"
)

// testdata/golden_funnel.json was captured at commit fc66f44, where the
// batch back half was the separate analyze function, by running this test
// there with -update-golden. It pins the unified core to that
// implementation rather than to itself: regenerate it only for a change
// that means to move the funnel, never for a refactor.
var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/golden_*.json file of each golden test run from the current implementation")

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
		sums, _, err := ExtractSummaries(context.Background(), RecordEvents(days[d], env.corr), 1, 0)
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
	restore := faultinject.Install(failSomeDetections)
	res, err = Run(context.Background(), env.trace.Records, env.corr, degraded)
	restore()
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

// testdata/golden_summaries.json was captured at commit 25f504b, where
// Run's front half was the data-extraction MapReduce job, by running
// TestGoldenSummaries there with -update-golden. Both front halves now
// share one aggregator, so this file — not each other — is their
// independent reference: regenerate it only for a change that means to
// move the summaries, never for a refactor.

// goldenSummary is one pair's summary, with the interval list digested
// (count and FNV-1a of the values) and the path sample as a sorted set:
// sample order among equal-timestamp events is not part of the contract.
type goldenSummary struct {
	Source      string   `json:"s"`
	Destination string   `json:"d"`
	First       int64    `json:"first"`
	Intervals   string   `json:"iv"`
	URLPaths    []string `json:"paths,omitempty"`
}

type goldenExtraction struct {
	Summaries []goldenSummary
	Truncated []TruncatedPair
}

func extractionOf(sums []*timeseries.ActivitySummary, truncated []TruncatedPair) goldenExtraction {
	var g goldenExtraction
	if len(truncated) > 0 {
		g.Truncated = truncated
	}
	for _, as := range sums {
		h := fnv.New64a()
		for _, iv := range as.Intervals {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(iv)))
		}
		paths := slices.Clone(as.URLPaths) // nil stays nil, as in the decoded golden
		slices.Sort(paths)
		g.Summaries = append(g.Summaries, goldenSummary{
			Source: as.Source, Destination: as.Destination, First: as.First,
			Intervals: fmt.Sprintf("%d:%016x", len(as.Intervals), h.Sum64()),
			URLPaths:  paths,
		})
	}
	return g
}

func sameExtraction(t *testing.T, name string, got, want goldenExtraction) {
	t.Helper()
	if len(got.Summaries) != len(want.Summaries) {
		t.Fatalf("%s: %d summaries, the golden has %d", name, len(got.Summaries), len(want.Summaries))
	}
	for i, w := range want.Summaries {
		if !reflect.DeepEqual(got.Summaries[i], w) {
			t.Errorf("%s: summary %d diverges from the golden:\n got %+v\nwant %+v", name, i, got.Summaries[i], w)
		}
	}
	if !reflect.DeepEqual(got.Truncated, want.Truncated) {
		t.Errorf("%s: truncation diverges from the golden:\n got %+v\nwant %+v", name, got.Truncated, want.Truncated)
	}
}

// TestGoldenSummaries pins both front halves — Run's record-slice adapter
// and RunStream's shard scan — to the summaries and truncation records the
// extraction job produced, uncapped and under a per-pair event cap.
func TestGoldenSummaries(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	shards := writeShardedLogs(t, env.trace.Records, 3, 2)
	// Whitelist every destination so the funnel stops at filter 1:
	// summaries do not depend on the back half, and detection is most of
	// a run's time.
	var hosts []string
	for _, r := range env.trace.Records {
		hosts = append(hosts, r.Host)
	}
	env.cfg.Global = whitelist.NewGlobal(hosts)
	capped := env.cfg
	capped.Guard.MaxEventsPerPair = 40
	got := map[string]goldenExtraction{}
	streamed := map[string]goldenExtraction{}
	for name, cfg := range map[string]Config{"clean": env.cfg, "capped": capped} {
		res, sums, err := RunWithSummaries(context.Background(), env.trace.Records, env.corr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = extractionOf(sums, res.Truncated)
		res, sums, err = RunStreamSummaries(context.Background(), shards, env.corr, cfg, StreamOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		streamed[name] = extractionOf(sums, res.Truncated)
	}
	if len(got["capped"].Truncated) == 0 {
		t.Fatal("capped case is vacuous: nothing truncated")
	}

	path := filepath.Join("testdata", "golden_summaries.json")
	if *updateGolden {
		b, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		// One pair per line: indenting every field would make the file a
		// dozen times longer. (A quote inside a JSON string is escaped, so
		// the pattern only ever matches the start of an object.)
		b = bytes.ReplaceAll(b, []byte(`{"s"`), []byte("\n{\"s\""))
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenExtraction
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		sameExtraction(t, "Run "+name, got[name], w)
		sameExtraction(t, "RunStream "+name, streamed[name], w)
	}
}
