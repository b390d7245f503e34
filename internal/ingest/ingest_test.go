package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// testLine renders one well-formed proxy log line.
func testLine(ts int64, src, host, path string) string {
	r := proxylog.Record{
		Timestamp: ts, ClientIP: src, Method: "GET", Scheme: "http",
		Host: host, Path: path, Status: 200, BytesOut: 10, BytesIn: 20,
		UserAgent: "ua/1.0",
	}
	return r.Format()
}

// writeShard writes lines to a file under dir and returns its path.
func writeShard(t *testing.T, dir, name string, lines []string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	content := strings.Join(lines, "\n")
	if len(lines) > 0 {
		content += "\n"
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// refEvent is one event of the reference (batch-equivalent) extraction.
type refEvent struct {
	src, dst, path string
	ts             int64
}

// eventAt adapts the reference events to IngestEvents' accessor.
func eventAt(events []refEvent) func(int) Event {
	return func(i int) Event {
		e := events[i]
		return Event{Source: e.src, Destination: e.dst, Timestamp: e.ts, Path: e.path}
	}
}

// refSummaries is the straight-line reference implementation the sharded
// ingest must match: group events by pair, sort timestamps, build one
// summary per pair, sorted by (source, destination).
func refSummaries(t *testing.T, events []refEvent, scale int64, maxEvents int) ([]*timeseries.ActivitySummary, []Truncation) {
	t.Helper()
	type group struct {
		ts    []int64
		paths []string
	}
	groups := map[[2]string]*group{}
	for _, e := range events {
		key := [2]string{e.src, e.dst}
		g := groups[key]
		if g == nil {
			g = &group{}
			groups[key] = g
		}
		g.ts = append(g.ts, e.ts)
		g.paths = append(g.paths, e.path)
	}
	keys := make([][2]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var sums []*timeseries.ActivitySummary
	var truncs []Truncation
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g.ts, func(i, j int) bool { return g.ts[i] < g.ts[j] })
		ts := g.ts
		if maxEvents > 0 && len(ts) > maxEvents {
			truncs = append(truncs, Truncation{
				Source: k[0], Destination: k[1],
				Kept: maxEvents, Dropped: len(ts) - maxEvents,
			})
			ts = ts[:maxEvents]
		}
		as, err := timeseries.FromTimestamps(k[0], k[1], ts, scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range g.paths {
			as.AddURLPath(p)
		}
		sums = append(sums, as)
	}
	return sums, truncs
}

// assertSummariesEqual compares ingest output against the reference,
// normalizing URL path order (arrival order is scheduling-dependent in
// the sharded scan; the set is not).
func assertSummariesEqual(t *testing.T, got, want []*timeseries.ActivitySummary) {
	t.Helper()
	if len(got) != len(want) {
		gotPairs := make([]string, len(got))
		for i, s := range got {
			gotPairs[i] = s.Source + "->" + s.Destination
		}
		t.Fatalf("%d summaries, want %d; got pairs %v", len(got), len(want), gotPairs)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Source != w.Source || g.Destination != w.Destination {
			t.Fatalf("summary %d is %s->%s, want %s->%s", i, g.Source, g.Destination, w.Source, w.Destination)
		}
		gts, wts := g.Timestamps(), w.Timestamps()
		if len(gts) != len(wts) {
			t.Fatalf("%s->%s: %d events, want %d", g.Source, g.Destination, len(gts), len(wts))
		}
		for j := range wts {
			if gts[j] != wts[j] {
				t.Fatalf("%s->%s event %d: ts %d, want %d", g.Source, g.Destination, j, gts[j], wts[j])
			}
		}
		gp := append([]string(nil), g.URLPaths...)
		wp := append([]string(nil), w.URLPaths...)
		sort.Strings(gp)
		sort.Strings(wp)
		if strings.Join(gp, "\x00") != strings.Join(wp, "\x00") {
			t.Fatalf("%s->%s: paths %v, want %v", g.Source, g.Destination, gp, wp)
		}
	}
}

// testCorpus builds a deterministic multi-pair corpus spread over nFiles
// files, with interleaved pairs, distinct timestamps per pair, and a pair
// whose events carry no URL path.
func testCorpus(t *testing.T, dir string, nFiles int) (paths []string, events []refEvent) {
	t.Helper()
	pairs := []struct{ src, dst string }{
		{"10.0.0.1", "alpha.example"},
		{"10.0.0.1", "beta.example"},
		{"10.0.0.2", "alpha.example"},
		{"10.0.0.3", "gamma.example"},
		{"10.0.0.4", "delta.example"},
		{"10.0.0.5", "epsilon.example"},
	}
	lines := make([][]string, nFiles)
	for i := 0; i < 240; i++ {
		p := pairs[i%len(pairs)]
		ts := int64(1425300000 + i*7) // distinct timestamps per pair
		path := fmt.Sprintf("/p/%d", i%5)
		if p.dst == "gamma.example" {
			path = "" // no-path events must survive the round trip
		}
		events = append(events, refEvent{src: p.src, dst: p.dst, path: path, ts: ts})
		f := i % nFiles
		lines[f] = append(lines[f], testLine(ts, p.src, p.dst, path))
	}
	for f := 0; f < nFiles; f++ {
		paths = append(paths, writeShard(t, dir, fmt.Sprintf("f%d.log", f), lines[f]))
	}
	return paths, events
}

// TestIngestMatchesReference is the package-level differential test: the
// parallel sharded ingest must produce exactly the summaries a
// straight-line single-threaded extraction produces.
func TestIngestMatchesReference(t *testing.T) {
	dir := t.TempDir()
	paths, events := testCorpus(t, dir, 3)
	shards, err := PlanShards(paths, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 3 {
		t.Fatalf("only %d shards planned", len(shards))
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := Ingest(context.Background(), shards, Config{Workers: workers, Partitions: 3})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want, _ := refSummaries(t, events, 1, 0)
		assertSummariesEqual(t, res.Summaries, want)
		if res.Stats.Records != len(events) {
			t.Errorf("workers=%d: Records = %d, want %d", workers, res.Stats.Records, len(events))
		}
		if len(res.Stats.Shards) != len(shards) {
			t.Errorf("workers=%d: %d shard stats, want %d", workers, len(res.Stats.Shards), len(shards))
		}
		if res.Symbols == nil {
			t.Error("Result.Symbols is nil")
		}
		// The same events through the already-parsed adapter.
		res, err = IngestEvents(context.Background(), len(events), eventAt(events), Config{Workers: workers, Partitions: 3})
		if err != nil {
			t.Fatalf("events, workers=%d: %v", workers, err)
		}
		assertSummariesEqual(t, res.Summaries, want)
	}
}

// TestIngestTruncation: a pair over the per-pair cap keeps its earliest
// events with explicit accounting, through either adapter.
func TestIngestTruncation(t *testing.T) {
	dir := t.TempDir()
	var lines []string
	var events []refEvent
	for i := 0; i < 10; i++ {
		ts := int64(1425300000 + i*60)
		lines = append(lines, testLine(ts, "10.0.0.9", "heavy.example", "/h"))
		events = append(events, refEvent{src: "10.0.0.9", dst: "heavy.example", path: "/h", ts: ts})
	}
	for i := 0; i < 3; i++ {
		ts := int64(1425300007 + i*60)
		lines = append(lines, testLine(ts, "10.0.0.9", "light.example", "/l"))
		events = append(events, refEvent{src: "10.0.0.9", dst: "light.example", path: "/l", ts: ts})
	}
	path := writeShard(t, dir, "t.log", lines)
	shards, err := PlanShards([]string{path}, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Ingest(context.Background(), shards, Config{Workers: 4, MaxEventsPerPair: 4})
	if err != nil {
		t.Fatal(err)
	}
	want, wantTruncs := refSummaries(t, events, 1, 4)
	assertSummariesEqual(t, res.Summaries, want)
	if len(res.Truncated) != 1 || res.Truncated[0] != wantTruncs[0] {
		t.Fatalf("Truncated = %+v, want %+v", res.Truncated, wantTruncs)
	}
	if res.Truncated[0].Kept != 4 || res.Truncated[0].Dropped != 6 {
		t.Fatalf("Truncated accounting = %+v", res.Truncated[0])
	}
	evRes, err := IngestEvents(context.Background(), len(events), eventAt(events), Config{Workers: 4, MaxEventsPerPair: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesEqual(t, evRes.Summaries, want)
	if len(evRes.Truncated) != 1 || evRes.Truncated[0] != wantTruncs[0] {
		t.Fatalf("events: Truncated = %+v, want %+v", evRes.Truncated, wantTruncs)
	}
}

// TestIngestLenientStats: malformed lines are skipped within the
// per-shard budget, counted per shard and in aggregate, with the first
// skip of the first (plan-order) affected shard surfaced for diagnostics.
func TestIngestLenientStats(t *testing.T) {
	dir := t.TempDir()
	good := writeShard(t, dir, "good.log", []string{
		testLine(1425300000, "10.0.0.1", "a.example", "/"),
	})
	mixed := writeShard(t, dir, "mixed.log", []string{
		testLine(1425300001, "10.0.0.1", "b.example", "/"),
		"THIS IS NOT A RECORD",
		testLine(1425300002, "10.0.0.1", "b.example", "/x"),
		"NEITHER IS THIS",
	})
	shards := []proxylog.Split{
		{Path: good, Offset: 0, Length: -1},
		{Path: mixed, Offset: 0, Length: -1},
	}
	res, err := Ingest(context.Background(), shards, Config{Workers: 2, MaxBadLines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Records != 3 || res.Stats.SkippedLines != 2 {
		t.Fatalf("Stats = %+v, want 3 records / 2 skipped", res.Stats)
	}
	if !strings.Contains(res.Stats.FirstSkipped, "mixed.log") {
		t.Errorf("FirstSkipped = %q, want the shard named", res.Stats.FirstSkipped)
	}
	if len(res.Stats.Shards) != 2 {
		t.Fatalf("%d shard stats, want 2", len(res.Stats.Shards))
	}
	if res.Stats.Shards[0].SkippedLines != 0 || res.Stats.Shards[1].SkippedLines != 2 {
		t.Errorf("per-shard skips = %d/%d, want 0/2",
			res.Stats.Shards[0].SkippedLines, res.Stats.Shards[1].SkippedLines)
	}

	// One bad line over the budget aborts with the shard identified.
	if _, err := Ingest(context.Background(), shards, Config{Workers: 2, MaxBadLines: 1}); err == nil {
		t.Fatal("over-budget ingest did not fail")
	} else if !strings.Contains(err.Error(), "ingest: shard") {
		t.Errorf("error does not identify the shard: %v", err)
	}

	// Strict mode aborts on the first malformed line.
	if _, err := Ingest(context.Background(), shards, Config{Workers: 2}); err == nil {
		t.Fatal("strict ingest did not fail")
	}
}

// TestIngestCancellation: a canceled context aborts the run with the
// context's error.
func TestIngestCancellation(t *testing.T) {
	dir := t.TempDir()
	paths, _ := testCorpus(t, dir, 2)
	shards, err := PlanShards(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Ingest(ctx, shards, Config{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestIngestReportsFailingShardNotCancelledSibling: a malformed line in
// one shard cancels the shard still scanning beside it; the run must
// report the malformed line, not the cancellation it caused, even though
// the cancelled shard comes first in plan order.
func TestIngestReportsFailingShardNotCancelledSibling(t *testing.T) {
	dir := t.TempDir()
	line := testLine(1425300000, "10.0.0.1", "a.example", "/a") + "\n"
	a := filepath.Join(dir, "a.log")
	if err := os.WriteFile(a, []byte(strings.Repeat(line, 400_000)), 0o644); err != nil {
		t.Fatal(err)
	}
	b := writeShard(t, dir, "b.log", []string{"garbage line"})
	shards := []proxylog.Split{{Path: a, Length: -1}, {Path: b, Length: -1}}
	for run := 0; run < 20; run++ {
		_, err := Ingest(context.Background(), shards, Config{Workers: 2})
		if err == nil || !strings.Contains(err.Error(), "b.log line 1: ") {
			t.Fatalf("run %d: err = %v, want b.log's line 1", run, err)
		}
	}
}

// TestURLPathSampleKeepsFirstDistinct: a pair with more distinct paths
// than a summary keeps gets the first 32 of them (timeseries' cap) in
// timestamp order, through repeats and path-less events, from either
// adapter.
func TestURLPathSampleKeepsFirstDistinct(t *testing.T) {
	const keep = 32
	var events []refEvent
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("/p/%d", i/2) // each path twice in a row
		switch i % 5 {
		case 3:
			path = ""
		case 4:
			path = "/p/0"
		}
		events = append(events, refEvent{src: "10.0.0.1", dst: "many.example", path: path, ts: 1425300000 + int64(i)})
	}
	var want []string
	for _, e := range events {
		if e.path != "" && len(want) < keep && !slices.Contains(want, e.path) {
			want = append(want, e.path)
		}
	}
	if len(want) != keep {
		t.Fatalf("fixture has %d distinct paths, want at least %d", len(want), keep)
	}
	// Arrival order is the reverse of timestamp order.
	slices.Reverse(events)
	lines := make([]string, len(events))
	for i, e := range events {
		lines[i] = testLine(e.ts, e.src, e.dst, e.path)
	}
	path := writeShard(t, t.TempDir(), "paths.log", lines)
	shards, err := PlanShards([]string{path}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := Config{Workers: workers}
		fromLines, err := Ingest(context.Background(), shards, cfg)
		if err != nil {
			t.Fatal(err)
		}
		fromEvents, err := IngestEvents(context.Background(), len(events), eventAt(events), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range []*Result{fromLines, fromEvents} {
			if len(res.Summaries) != 1 || !slices.Equal(res.Summaries[0].URLPaths, want) {
				t.Fatalf("workers=%d: URLPaths = %v, want %v", workers, res.Summaries[0].URLPaths, want)
			}
		}
	}
}

// TestIngestEmptyAndSymbolReuse: no shards is an empty (not nil) result,
// and a caller-provided symbol table is used and returned, keeping IDs
// warm across ingests.
func TestIngestEmptyAndSymbolReuse(t *testing.T) {
	res, err := Ingest(context.Background(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 0 || res.Symbols == nil {
		t.Fatalf("empty ingest: %d summaries, symbols=%v", len(res.Summaries), res.Symbols)
	}
	res, err = IngestEvents(context.Background(), 0, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 0 || res.Symbols == nil {
		t.Fatalf("empty event ingest: %d summaries, symbols=%v", len(res.Summaries), res.Symbols)
	}

	dir := t.TempDir()
	paths, events := testCorpus(t, dir, 2)
	shards, err := PlanShards(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSymbolTable()
	first, err := Ingest(context.Background(), shards, Config{Workers: 2, Symbols: warm})
	if err != nil {
		t.Fatal(err)
	}
	if first.Symbols != warm {
		t.Fatal("Result.Symbols is not the provided table")
	}
	interned := warm.Len()
	if interned == 0 {
		t.Fatal("nothing interned into the provided table")
	}
	// A second ingest over the same corpus re-uses every symbol.
	second, err := Ingest(context.Background(), shards, Config{Workers: 2, Symbols: warm})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Len() != interned {
		t.Errorf("second ingest grew the table %d -> %d", interned, warm.Len())
	}
	want, _ := refSummaries(t, events, 1, 0)
	assertSummariesEqual(t, first.Summaries, want)
	assertSummariesEqual(t, second.Summaries, want)
}

// TestIngestCorrelator: with a DHCP correlator, sources resolve to MACs
// where a lease covers the timestamp and fall back to "ip:<addr>"
// otherwise — Correlator.SourceID's exact contract.
func TestIngestCorrelator(t *testing.T) {
	corr, err := proxylog.NewCorrelator([]proxylog.Lease{
		{IP: "10.0.0.1", MAC: "aa:bb:cc:00:00:01", Start: 1425300000, End: 1425400000},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := writeShard(t, dir, "c.log", []string{
		testLine(1425300010, "10.0.0.1", "a.example", "/"),
		testLine(1425300020, "10.0.0.1", "a.example", "/"),
		testLine(1425300030, "10.0.0.2", "b.example", "/"), // no lease
	})
	res, err := Ingest(context.Background(),
		[]proxylog.Split{{Path: path, Offset: 0, Length: -1}},
		Config{Workers: 1, Correlator: corr})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summaries) != 2 {
		t.Fatalf("%d summaries, want 2", len(res.Summaries))
	}
	bySrc := map[string]string{}
	for _, s := range res.Summaries {
		bySrc[s.Source] = s.Destination
	}
	if bySrc["aa:bb:cc:00:00:01"] != "a.example" {
		t.Errorf("leased IP not resolved to MAC: %v", bySrc)
	}
	if bySrc["ip:10.0.0.2"] != "b.example" {
		t.Errorf("unleased IP missing ip: fallback: %v", bySrc)
	}
}

// faultCorpus builds a small two-shard corpus for the fault tests.
func faultCorpus(t *testing.T) []proxylog.Split {
	t.Helper()
	dir := t.TempDir()
	paths, _ := testCorpus(t, dir, 2)
	shards, err := PlanShards(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	return shards
}

// TestIngestScanFaultError: an injected error at PointIngestShardScan
// aborts the run with the shard identified and the cause preserved.
func TestIngestScanFaultError(t *testing.T) {
	shards := faultCorpus(t)
	injected := errors.New("injected scan failure")
	SetFaultHook(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointIngestShardScan)+":") {
			return injected
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })
	_, err := Ingest(context.Background(), shards, Config{Workers: 2})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "ingest: shard") {
		t.Errorf("error does not identify the shard: %v", err)
	}
}

// TestIngestScanFaultCrash: a panic raised inside a shard scan (here a
// scheduled faultinject crash) is contained as that shard's error instead
// of taking down the process.
func TestIngestScanFaultCrash(t *testing.T) {
	shards := faultCorpus(t)
	sched := faultinject.New(1)
	sched.CrashAt(faultinject.PointIngestShardScan.Keyed(shards[0].String()), 1)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil) })
	_, err := Ingest(context.Background(), shards, Config{Workers: 2})
	if err == nil {
		t.Fatal("crashed scan did not fail the ingest")
	}
	if !strings.Contains(err.Error(), "scan panic") {
		t.Errorf("panic not converted to a scan error: %v", err)
	}
}

// TestIngestAggregateFaultError: an injected error at
// PointIngestAggregate aborts the run with the partition identified.
func TestIngestAggregateFaultError(t *testing.T) {
	shards := faultCorpus(t)
	injected := errors.New("injected aggregate failure")
	SetFaultHook(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointIngestAggregate)+":") {
			return injected
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })
	_, err := Ingest(context.Background(), shards, Config{Workers: 2})
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	if !strings.Contains(err.Error(), "ingest: partition") {
		t.Errorf("error does not identify the partition: %v", err)
	}
}

// TestIngestAggregateFaultCrash: a panic during partition aggregation is
// contained as that partition's error.
func TestIngestAggregateFaultCrash(t *testing.T) {
	shards := faultCorpus(t)
	sched := faultinject.New(1)
	sched.CrashAt(faultinject.PointIngestAggregate.Keyed("0"), 1)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil) })
	_, err := Ingest(context.Background(), shards, Config{Workers: 2, Partitions: 2})
	if err == nil {
		t.Fatal("crashed aggregation did not fail the ingest")
	}
	if !strings.Contains(err.Error(), "aggregate panic") {
		t.Errorf("panic not converted to an aggregate error: %v", err)
	}
}

// TestAggregationNotClampedByShardCount: one scan unit (a gzip file, a
// whole-file split) must still aggregate its partitions on the configured
// worker count. The hook holds each partition at the aggregate fault point
// until all four are there; serialized aggregation never gets past one.
func TestAggregationNotClampedByShardCount(t *testing.T) {
	dir := t.TempDir()
	paths, _ := testCorpus(t, dir, 1)
	one, err := PlanShards(paths, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := PlanShards(paths, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || len(four) != 4 {
		t.Fatalf("planned %d and %d shards, want 1 and 4", len(one), len(four))
	}
	cfg := Config{Workers: 4}
	want, err := Ingest(context.Background(), four, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	waiting, peak := 0, 0
	all := make(chan struct{})
	SetFaultHook(func(point string) error {
		if !strings.HasPrefix(point, string(faultinject.PointIngestAggregate)+":") {
			return nil
		}
		mu.Lock()
		waiting++
		peak = max(peak, waiting)
		if waiting == 4 {
			close(all)
		}
		mu.Unlock()
		select {
		case <-all:
		case <-time.After(time.Second):
		}
		mu.Lock()
		waiting--
		mu.Unlock()
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })
	got, err := Ingest(context.Background(), one, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 4 {
		t.Errorf("at most %d partition(s) aggregated concurrently, want 4", peak)
	}
	assertSummariesEqual(t, got.Summaries, want.Summaries)
}

// TestHandleNoAlloc is the proof behind the //bw:noalloc annotation on
// the scan worker's handle: with warm symbols and pre-grown partition
// buffers, appending a record allocates nothing.
func TestHandleNoAlloc(t *testing.T) {
	syms := NewSymbolTable()
	parts := make([][]pairEvent, 4)
	for p := range parts {
		parts[p] = make([]pairEvent, 0, 4096)
	}
	cache := borrowSymCache(syms)
	defer symCachePool.Put(cache)
	sw := &scanWorker{ctx: context.Background(), syms: syms, cache: cache, parts: parts}
	line := []byte(testLine(1425300000, "10.0.0.1", "warm.example", "/w"))
	var v proxylog.RecordView
	if err := proxylog.ParseRecordView(line, &v); err != nil {
		t.Fatal(err)
	}
	if err := sw.handle(&v); err != nil { // warm the symbol table
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sw.handle(&v); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("handle allocates %.1f/op steady-state, want 0", allocs)
	}

	// The event adapter's loop over the same (warm) symbols, through
	// idString and internStringHash.
	events := []Event{
		{Source: "10.0.0.1", Destination: "warm.example", Timestamp: 1425300000, Path: "/w"},
		{Source: "10.0.0.1", Destination: "warm.example", Timestamp: 1425300060},
	}
	at := func(i int) Event { return events[i] }
	if err := sw.scatterEvents(0, len(events), at); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := sw.scatterEvents(0, len(events), at); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("scatterEvents allocates %.1f/op steady-state, want 0", allocs)
	}
	h := hashString("warm.example")
	if allocs := testing.AllocsPerRun(100, func() {
		if cache.idString("warm.example") != syms.internStringHash("warm.example", h) {
			t.Fatal("cache and table disagree on a warm symbol")
		}
	}); allocs != 0 {
		t.Errorf("idString/internStringHash allocate %.1f/op warm, want 0", allocs)
	}
}

// TestPlanShards pins the planner: every file contributes at least one
// shard, plan order follows argument order, and an empty plan is an
// error.
func TestPlanShards(t *testing.T) {
	dir := t.TempDir()
	paths, _ := testCorpus(t, dir, 2)
	shards, err := PlanShards(paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) < 2 {
		t.Fatalf("%d shards for 2 files", len(shards))
	}
	if shards[0].Path != paths[0] {
		t.Errorf("plan order broken: first shard is %s", shards[0].Path)
	}
	if _, err := PlanShards(nil, 4); err == nil {
		t.Error("empty plan did not error")
	}
}
