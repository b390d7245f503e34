package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"baywatch/internal/faultinject"
	"baywatch/internal/ingest"
	"baywatch/internal/proxylog"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
)

// writeShardedLogs writes the records across nFiles log files (contiguous
// chunks, canonical line format) and plans splitsPerFile byte-range
// splits per file — the sharded on-disk form of exactly the batch input.
func writeShardedLogs(t *testing.T, records []*proxylog.Record, nFiles, splitsPerFile int) []proxylog.Split {
	t.Helper()
	dir := t.TempDir()
	chunk := (len(records) + nFiles - 1) / nFiles
	var paths []string
	for i := 0; i < nFiles; i++ {
		lo := i * chunk
		if lo >= len(records) {
			break
		}
		hi := lo + chunk
		if hi > len(records) {
			hi = len(records)
		}
		var sb strings.Builder
		for _, r := range records[lo:hi] {
			sb.WriteString(r.Format())
			sb.WriteByte('\n')
		}
		p := filepath.Join(dir, fmt.Sprintf("shard-%02d.log", i))
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	shards, err := ingest.PlanShards(paths, splitsPerFile)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// normalizeResult clears the fields that legitimately differ between a
// batch and a streaming run over identical input: phase wall-clock times,
// and the order of each summary's URLPaths sample (both paths record the
// same bounded set; insertion order among equal-timestamp events is not
// part of the contract and nothing downstream reads the order).
func normalizeResult(res *Result) {
	res.Stats.ExtractTime = 0
	res.Stats.PopularityTime = 0
	res.Stats.DetectTime = 0
	res.Stats.RankTime = 0
	if len(res.Truncated) == 0 {
		res.Truncated = nil
	}
	for _, c := range res.Candidates {
		if c.Summary != nil {
			sort.Strings(c.Summary.URLPaths)
		}
	}
}

func summariesDiff(a, b *timeseries.ActivitySummary) string {
	switch {
	case a.Source != b.Source || a.Destination != b.Destination:
		return fmt.Sprintf("pair (%s,%s) vs (%s,%s)", a.Source, a.Destination, b.Source, b.Destination)
	case a.Scale != b.Scale:
		return fmt.Sprintf("scale %d vs %d", a.Scale, b.Scale)
	case a.First != b.First:
		return fmt.Sprintf("first %d vs %d", a.First, b.First)
	case len(a.Intervals) != len(b.Intervals):
		return fmt.Sprintf("%d vs %d intervals", len(a.Intervals), len(b.Intervals))
	}
	for i := range a.Intervals {
		if a.Intervals[i] != b.Intervals[i] {
			return fmt.Sprintf("interval %d: %d vs %d", i, a.Intervals[i], b.Intervals[i])
		}
	}
	if len(a.URLPaths) != len(b.URLPaths) {
		return fmt.Sprintf("%d vs %d url paths", len(a.URLPaths), len(b.URLPaths))
	}
	for i := range a.URLPaths {
		if a.URLPaths[i] != b.URLPaths[i] {
			return fmt.Sprintf("url path %d: %q vs %q", i, a.URLPaths[i], b.URLPaths[i])
		}
	}
	return ""
}

// TestRunStreamMatchesRun is the differential test of the two adapters:
// the shard scan (parse, correlate, intern bytes) and the record-slice
// adapter (Correlator.SourceID, intern strings) must hand the shared
// aggregator the same events, so the Results are identical. The
// aggregator itself is pinned independently by TestGoldenSummaries.
func TestRunStreamMatchesRun(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	batch, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	shards := writeShardedLogs(t, env.trace.Records, 3, 2)
	stream, err := RunStream(context.Background(), shards, env.corr, env.cfg, StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	if stream.Ingest == nil {
		t.Fatal("streaming run reported no ingest stats")
	}
	if stream.Ingest.Records != len(env.trace.Records) {
		t.Errorf("ingest records = %d, want %d", stream.Ingest.Records, len(env.trace.Records))
	}
	if stream.Ingest.Shards != len(shards) {
		t.Errorf("ingest shards = %d, want %d", stream.Ingest.Shards, len(shards))
	}
	if stream.Ingest.SkippedLines != 0 {
		t.Errorf("ingest skipped %d lines of a clean corpus", stream.Ingest.SkippedLines)
	}
	if batch.Ingest != nil {
		t.Error("batch run unexpectedly carries ingest stats")
	}

	sameResult(t, batch, stream)
}

// sameResult asserts that a record-slice run and a streaming run produced
// one Result: same funnel stats, same candidates in the same order with
// the same summaries, detections, scores and verdicts, same reported set.
func sameResult(t *testing.T, batch, stream *Result) {
	t.Helper()
	normalizeResult(batch)
	normalizeResult(stream)

	if batch.Stats != stream.Stats {
		t.Errorf("stats diverge:\n batch  %+v\n stream %+v", batch.Stats, stream.Stats)
	}
	if batch.Degraded != stream.Degraded {
		t.Errorf("degraded: batch %v, stream %v", batch.Degraded, stream.Degraded)
	}
	if !reflect.DeepEqual(batch.Errors, stream.Errors) {
		t.Errorf("errors diverge: batch %v, stream %v", batch.Errors, stream.Errors)
	}
	if !reflect.DeepEqual(batch.Truncated, stream.Truncated) {
		t.Errorf("truncated diverge: batch %v, stream %v", batch.Truncated, stream.Truncated)
	}

	if len(batch.Candidates) != len(stream.Candidates) {
		t.Fatalf("candidates: batch %d, stream %d", len(batch.Candidates), len(stream.Candidates))
	}
	for i := range batch.Candidates {
		bc, sc := batch.Candidates[i], stream.Candidates[i]
		id := fmt.Sprintf("candidate %d (%s -> %s)", i, bc.Source, bc.Destination)
		if bc.Source != sc.Source || bc.Destination != sc.Destination {
			t.Fatalf("%s: stream has (%s -> %s)", id, sc.Source, sc.Destination)
		}
		if d := summariesDiff(bc.Summary, sc.Summary); d != "" {
			t.Errorf("%s: summary: %s", id, d)
		}
		if !reflect.DeepEqual(bc.Detection, sc.Detection) {
			t.Errorf("%s: detections diverge", id)
		}
		if bc.LMScore != sc.LMScore || bc.Popularity != sc.Popularity || bc.SimilarSources != sc.SimilarSources {
			t.Errorf("%s: lm/popularity diverge: batch (%v,%v,%d) stream (%v,%v,%d)",
				id, bc.LMScore, bc.Popularity, bc.SimilarSources, sc.LMScore, sc.Popularity, sc.SimilarSources)
		}
		if bc.Token != sc.Token || bc.Novelty != sc.Novelty {
			t.Errorf("%s: token/novelty diverge", id)
		}
		if bc.Score != sc.Score || bc.SuppressedBy != sc.SuppressedBy {
			t.Errorf("%s: verdict diverges: batch (%v,%v) stream (%v,%v)",
				id, bc.Score, bc.SuppressedBy, sc.Score, sc.SuppressedBy)
		}
	}
	if len(batch.Reported) != len(stream.Reported) {
		t.Fatalf("reported: batch %d, stream %d", len(batch.Reported), len(stream.Reported))
	}
	for i := range batch.Reported {
		if batch.Reported[i].Destination != stream.Reported[i].Destination ||
			batch.Reported[i].Source != stream.Reported[i].Source {
			t.Errorf("reported %d: batch %s->%s, stream %s->%s", i,
				batch.Reported[i].Source, batch.Reported[i].Destination,
				stream.Reported[i].Source, stream.Reported[i].Destination)
		}
	}
}

// TestAdaptersAgreeOnEdgeCases runs the same events through the
// record-slice adapter and, written to a log file, through the shard
// adapter, over the inputs where the two could part ways.
func TestAdaptersAgreeOnEdgeCases(t *testing.T) {
	const base = int64(1425300000)
	rec := func(ts int64, src, host, path string) *proxylog.Record {
		return &proxylog.Record{Timestamp: ts, ClientIP: src, Method: "GET", Scheme: "http",
			Host: host, Path: path, Status: 200, BytesOut: 1, BytesIn: 1, UserAgent: "ua"}
	}
	series := func(n int, src, host string) []*proxylog.Record {
		var out []*proxylog.Record
		for i := 0; i < n; i++ {
			out = append(out, rec(base+int64(i)*60, src, host, "/p"))
		}
		return out
	}
	corr, err := proxylog.NewCorrelator([]proxylog.Lease{
		{IP: "10.0.0.1", MAC: "aa:bb:cc:00:00:01", Start: base - 100, End: base + 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		records   []*proxylog.Record
		corr      *proxylog.Correlator
		maxEvents int
		pairs     int
		truncated []TruncatedPair
		sources   []string // expected candidate sources, in pair order
	}{
		{name: "empty input"},
		{
			name: "unsorted and duplicate timestamps",
			records: []*proxylog.Record{
				rec(base+300, "10.0.0.1", "a.example", "/late"), rec(base, "10.0.0.1", "a.example", "/early"),
				rec(base+300, "10.0.0.1", "a.example", "/dup"), rec(base+60, "10.0.0.1", "a.example", "/early"),
			},
			pairs: 1,
		},
		{
			name:    "empty path",
			records: []*proxylog.Record{rec(base, "10.0.0.1", "a.example", ""), rec(base+60, "10.0.0.1", "a.example", "")},
			pairs:   1,
		},
		{
			name: "separator in endpoints",
			records: append(series(3, "a|b", "evil.example"),
				rec(base+7, "a", "b|evil.example", "/p"), rec(base+67, "a", "b|evil.example", "/p")),
			pairs:   2,
			sources: []string{"a", "a|b"},
		},
		{
			name:    "correlator hit and ip fallback",
			records: append(series(3, "10.0.0.1", "a.example"), series(3, "10.0.0.2", "a.example")...),
			corr:    corr,
			pairs:   2,
			sources: []string{"aa:bb:cc:00:00:01", "ip:10.0.0.2"},
		},
		{
			name:      "at and over the per-pair cap",
			records:   append(series(5, "10.0.0.1", "at.example"), series(6, "10.0.0.1", "over.example")...),
			maxEvents: 5,
			pairs:     2,
			truncated: []TruncatedPair{{Source: "10.0.0.1", Destination: "over.example", Kept: 5, Dropped: 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.Guard.MaxEventsPerPair = tc.maxEvents
			batch, err := Run(context.Background(), tc.records, tc.corr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, r := range tc.records {
				sb.WriteString(r.Format())
				sb.WriteByte('\n')
			}
			path := filepath.Join(t.TempDir(), "edge.log")
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			shards, err := ingest.PlanShards([]string{path}, 2)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := RunStream(context.Background(), shards, tc.corr, cfg, StreamOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, batch, stream)

			if batch.Stats.Pairs != tc.pairs || batch.Stats.InputEvents != len(tc.records) {
				t.Errorf("pairs = %d, events = %d, want %d and %d", batch.Stats.Pairs, batch.Stats.InputEvents, tc.pairs, len(tc.records))
			}
			if !reflect.DeepEqual(batch.Truncated, tc.truncated) {
				t.Errorf("truncated = %+v, want %+v", batch.Truncated, tc.truncated)
			}
			if batch.Degraded != (len(tc.truncated) > 0) {
				t.Errorf("degraded = %v with %d truncated pair(s)", batch.Degraded, len(tc.truncated))
			}
			if tc.sources != nil {
				var got []string
				for _, c := range batch.Candidates {
					got = append(got, c.Source)
				}
				if !reflect.DeepEqual(got, tc.sources) {
					t.Errorf("candidate sources = %v, want %v", got, tc.sources)
				}
			}
		})
	}
}

// TestRunStreamWorkerInvariance: the streaming result must not depend on
// the scan parallelism.
func TestRunStreamWorkerInvariance(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	shards := writeShardedLogs(t, env.trace.Records, 4, 1)
	var base *Result
	for _, workers := range []int{1, 4} {
		res, err := RunStream(context.Background(), shards, env.corr, env.cfg, StreamOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		normalizeResult(res)
		if base == nil {
			base = res
			continue
		}
		if base.Stats != res.Stats {
			t.Errorf("workers=%d: stats diverge from workers=1:\n %+v\n %+v", workers, base.Stats, res.Stats)
		}
		if len(base.Candidates) != len(res.Candidates) {
			t.Fatalf("workers=%d: %d candidates, want %d", workers, len(res.Candidates), len(base.Candidates))
		}
		for i := range base.Candidates {
			if base.Candidates[i].Score != res.Candidates[i].Score ||
				base.Candidates[i].SuppressedBy != res.Candidates[i].SuppressedBy {
				t.Errorf("workers=%d candidate %d diverges", workers, i)
			}
		}
	}
}

// TestRunStreamLenientBudget: per-shard malformed-line budgets surface in
// Result.Ingest without failing the run; a strict run over the same dirty
// corpus fails.
func TestRunStreamLenientBudget(t *testing.T) {
	env := newTestEnv(t, nil)
	dir := t.TempDir()
	var sb strings.Builder
	for _, r := range env.trace.Records {
		sb.WriteString(r.Format())
		sb.WriteByte('\n')
	}
	sb.WriteString("%% not a log line %%\n")
	sb.WriteString("also garbage\n")
	path := filepath.Join(dir, "dirty.log")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	shards, err := ingest.PlanShards([]string{path}, 1)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RunStream(context.Background(), shards, env.corr, env.cfg, StreamOptions{Workers: 2, MaxBadLines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingest.SkippedLines != 2 {
		t.Errorf("skipped %d lines, want 2", res.Ingest.SkippedLines)
	}
	if res.Ingest.FirstSkipped == "" {
		t.Error("no first-skipped sample recorded")
	}
	if res.Ingest.Records != len(env.trace.Records) {
		t.Errorf("records = %d, want %d", res.Ingest.Records, len(env.trace.Records))
	}

	if _, err := RunStream(context.Background(), shards, env.corr, env.cfg, StreamOptions{Workers: 2}); err == nil {
		t.Fatal("strict streaming run accepted a dirty corpus")
	}
}

// TestRunStreamScanFault: an injected shard-scan failure aborts the run
// with its cause and the "pipeline: ingest" wrapping intact.
func TestRunStreamScanFault(t *testing.T) {
	env := newTestEnv(t, nil)
	shards := writeShardedLogs(t, env.trace.Records, 2, 1)
	boom := errors.New("disk gone")
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointIngestShardScan)+":") {
			return boom
		}
		return nil
	}))
	_, err := RunStream(context.Background(), shards, env.corr, env.cfg, StreamOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected scan fault", err)
	}
	if !strings.Contains(err.Error(), "pipeline: ingest") {
		t.Errorf("err = %v, want pipeline: ingest wrapping", err)
	}
}

// TestRunStreamRequiresLanguageModel mirrors the batch precondition.
func TestRunStreamRequiresLanguageModel(t *testing.T) {
	if _, err := RunStream(context.Background(), nil, nil, Config{}, StreamOptions{}); err == nil {
		t.Fatal("expected error without language model")
	}
}

// TestRunSeparatorPairsStayDistinct pins the fix for the concatenated
// "src|dst" pair key: endpoints containing the separator byte must never
// merge into one pair anywhere in the pipeline.
func TestRunSeparatorPairsStayDistinct(t *testing.T) {
	env := newTestEnv(t, nil)
	base := int64(1425300000)
	var records []*proxylog.Record
	for i := 0; i < 8; i++ {
		// Old-style key for both: "a|b|evil.example". Two distinct pairs.
		records = append(records,
			&proxylog.Record{Timestamp: base + int64(i*60), ClientIP: "a|b", Method: "GET", Scheme: "http",
				Host: "evil.example", Path: "/x", Status: 200, BytesOut: 1, BytesIn: 1, UserAgent: "ua"},
			&proxylog.Record{Timestamp: base + int64(i*60) + 7, ClientIP: "a", Method: "GET", Scheme: "http",
				Host: "b|evil.example", Path: "/x", Status: 200, BytesOut: 1, BytesIn: 1, UserAgent: "ua"},
		)
	}
	res, err := Run(context.Background(), records, nil, Config{LM: env.cfg.LM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Pairs != 2 {
		t.Fatalf("Pairs = %d, want 2 distinct pairs despite '|' in endpoints", res.Stats.Pairs)
	}
	seen := map[string]bool{}
	for _, c := range res.Candidates {
		seen[c.Source+"\x00"+c.Destination] = true
	}
	if len(seen) != 2 {
		t.Errorf("candidates collapsed: %d distinct pairs, want 2", len(seen))
	}
}

// TestCountPathMatchesSummaryPath: Run and RunStream hand globally listed
// pairs to the analysis as counts, RunWithSummaries and
// RunStreamSummaries as summaries; the Results must be identical, with a
// per-pair cap that truncates a listed pair, and the …Summaries entry
// points must still return every pair's summary.
func TestCountPathMatchesSummaryPath(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(2)})
	ctx := context.Background()
	sums, _, err := ExtractSummaries(ctx, RecordEvents(env.trace.Records, env.corr), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	busiest := 0
	for _, as := range sums {
		if env.cfg.Global.Contains(as.Destination) {
			busiest = max(busiest, as.EventCount())
		}
	}
	cfg := env.cfg
	cfg.Guard.MaxEventsPerPair = busiest - 1

	counted, err := Run(ctx, env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	summarized, all, err := RunWithSummaries(ctx, env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	listedTruncated := false
	for _, tp := range counted.Truncated {
		listedTruncated = listedTruncated || cfg.Global.Contains(tp.Destination)
	}
	if !listedTruncated || counted.Stats.AfterGlobalWhitelist == counted.Stats.Pairs || counted.Stats.AfterGlobalWhitelist == 0 {
		t.Fatalf("trace needs listed and unlisted pairs and a truncated listed one: %+v", counted.Stats)
	}
	if len(all) != summarized.Stats.Pairs {
		t.Fatalf("RunWithSummaries returned %d summaries for %d pairs", len(all), summarized.Stats.Pairs)
	}
	sameResult(t, counted, summarized)

	shards := writeShardedLogs(t, env.trace.Records, 2, 2)
	opt := StreamOptions{Workers: 2}
	streamCounted, err := RunStream(ctx, shards, env.corr, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamSummarized, streamAll, err := RunStreamSummaries(ctx, shards, env.corr, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamAll) != streamSummarized.Stats.Pairs {
		t.Fatalf("RunStreamSummaries returned %d summaries for %d pairs", len(streamAll), streamSummarized.Stats.Pairs)
	}
	sameResult(t, streamCounted, streamSummarized)
	sameResult(t, counted, streamCounted)
}
