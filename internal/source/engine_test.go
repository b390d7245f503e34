package source

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"baywatch/internal/faultinject"
	"baywatch/internal/pipeline"
)

func TestOpenEngineValidation(t *testing.T) {
	if _, err := OpenEngine(Config{}); err == nil {
		t.Error("expected error for missing StateDir")
	}
}

func TestApplySequenceDedup(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Source: "h1", Destination: "d1", TS: 100},
		{Source: "h1", Destination: "d1", TS: 200},
		{Source: "h1", Destination: "d2", TS: 300},
	}
	if n := eng.Apply(Batch{Source: "s", Events: evs, Pos: Position{Records: 3}}); n != 3 {
		t.Fatalf("applied %d, want 3", n)
	}
	// A reconnecting producer resends an overlapping range: only the new
	// suffix lands.
	resend := []Event{
		{Source: "h1", Destination: "d2", TS: 300}, // seq 2 (already applied)
		{Source: "h2", Destination: "d2", TS: 400}, // seq 3 (new)
	}
	if n := eng.Apply(Batch{Source: "s", Events: resend, Pos: Position{Records: 4}}); n != 1 {
		t.Fatalf("applied %d of overlapping resend, want 1", n)
	}
	// A full duplicate applies nothing.
	if n := eng.Apply(Batch{Source: "s", Events: evs, Pos: Position{Records: 3}}); n != 0 {
		t.Fatalf("applied %d of pure duplicate, want 0", n)
	}
	st := eng.Stats()
	if st.Events != 4 || st.Pairs != 3 {
		t.Fatalf("stats = %d events / %d pairs, want 4 / 3", st.Events, st.Pairs)
	}
	if got := eng.Position("s").Records; got != 4 {
		t.Fatalf("position = %d, want 4", got)
	}
}

func TestApplyAllSkippedBatchAdvancesPosition(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// A batch of only-skipped lines still moves the source forward (the
	// follower's offset must persist even when nothing parsed).
	eng.Apply(Batch{Source: "s", Skipped: 5, Pos: Position{Records: 0, Skipped: 5, Offset: 512}})
	if got := eng.Position("s").Offset; got != 512 {
		t.Fatalf("offset = %d, want 512", got)
	}
}

func TestApplyForwardJumpIsWarnedNotGuessed(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	eng.Apply(Batch{Source: "s", Events: []Event{{Source: "h", Destination: "d", TS: 1}}, Pos: Position{Records: 1}})
	// The producer jumped: events 1..4 never arrived.
	n := eng.Apply(Batch{Source: "s", Events: []Event{{Source: "h", Destination: "d", TS: 9}}, Pos: Position{Records: 5}})
	if n != 1 {
		t.Fatalf("applied %d, want 1 (the delivered event itself)", n)
	}
	if ws := eng.Recovery().Warnings; len(ws) == 0 {
		t.Error("expected a gap warning")
	}
	if got := eng.Position("s").Records; got != 5 {
		t.Fatalf("position = %d, want 5", got)
	}
}

func TestWatermarkOnlyAdvancesAtCommit(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Lateness: 100})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(seq int64, ts int64) int {
		return eng.Apply(Batch{Source: "s",
			Events: []Event{{Source: "h", Destination: "d", TS: ts}},
			Pos:    Position{Records: seq}})
	}
	apply(1, 1000)
	// No commit yet: watermark is still 0, so even a very old event lands.
	if n := apply(2, 10); n != 1 {
		t.Fatalf("pre-commit late event dropped (applied %d)", n)
	}
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	if wm := eng.Stats().Watermark; wm != 900 {
		t.Fatalf("watermark = %d, want 900 (maxTS 1000 - lateness 100)", wm)
	}
	// Behind the committed watermark: dropped and counted.
	if n := apply(3, 900); n != 0 {
		t.Fatalf("late event applied (%d), want dropped", n)
	}
	// Just ahead of it: kept.
	if n := apply(4, 901); n != 1 {
		t.Fatalf("in-window event dropped (applied %d)", n)
	}
	st := eng.Stats()
	if st.LateDropped != 1 {
		t.Fatalf("LateDropped = %d, want 1", st.LateDropped)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Lateness: 50, Pipeline: testPipelineCfg(t, nil)}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := smallTrace(t)
	recs := tr.Records
	if len(recs) > 2000 {
		recs = recs[:2000]
	}
	events := recordsToEvents(recs)
	applyAll(eng, "s", events, 257)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantStats := eng.Stats()

	// Reopen: positions, accounting and detection all survive.
	reopened, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Position("s"); got != eng.Position("s") {
		t.Fatalf("position = %+v, want %+v", got, eng.Position("s"))
	}
	got, err := reopened.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.Result, want.Result)
	gs := reopened.Stats()
	if gs.Pairs != wantStats.Pairs || gs.Events != wantStats.Events || gs.Watermark != wantStats.Watermark {
		t.Fatalf("stats after reopen = %+v, want pairs/events/watermark of %+v", gs, wantStats)
	}
	if gs.Uncommitted != 0 {
		t.Fatalf("uncommitted after reopen = %d, want 0", gs.Uncommitted)
	}
}

func TestCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, checkpointPath(dir), "not a checkpoint at all")
	// A leftover tmp from a crashed write is cleaned up too.
	writeFile(t, checkpointPath(dir)+".tmp", "partial")
	eng, err := OpenEngine(Config{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rec := eng.Recovery()
	if len(rec.Quarantined) != 1 || len(rec.Warnings) == 0 {
		t.Fatalf("recovery = %+v, want one quarantined file and a warning", rec)
	}
	if _, err := os.Stat(rec.Quarantined[0]); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if _, err := os.Stat(checkpointPath(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Error("leftover tmp file not removed")
	}
	if st := eng.Stats(); st.Pairs != 0 {
		t.Fatalf("engine not empty after quarantine: %+v", st)
	}
	// The engine is usable: a fresh commit writes a new checkpoint.
	eng.Apply(Batch{Source: "s", Events: []Event{{Source: "h", Destination: "d", TS: 1}}, Pos: Position{Records: 1}})
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestUnquarantinableCheckpointKept: a corrupt log that cannot be moved
// aside (here quarantine/ is taken by a file) fails OpenEngine. Starting
// empty would let the first commit, a compaction, replace the log.
func TestUnquarantinableCheckpointKept(t *testing.T) {
	dir := t.TempDir()
	const corrupt = "not a checkpoint at all"
	writeFile(t, checkpointPath(dir), corrupt)
	writeFile(t, filepath.Join(dir, "quarantine"), "a file where the quarantine directory goes")
	eng, err := OpenEngine(Config{StateDir: dir})
	if err == nil {
		eng.Apply(Batch{Source: "s", Events: []Event{{Source: "h", Destination: "d", TS: 1}}, Pos: Position{Records: 1}})
		cerr := eng.Commit()
		t.Errorf("OpenEngine started empty over a log it could not quarantine (commit: %v)", cerr)
	}
	if data, err := os.ReadFile(checkpointPath(dir)); err != nil || string(data) != corrupt {
		t.Fatalf("checkpoint = %q (%v), want its bytes unchanged", data, err)
	}
}

// TestStreamingMatchesBatchPipeline is the differential anchor: the
// streaming engine fed event-by-event must report exactly what one batch
// pipeline run over the same records reports.
func TestStreamingMatchesBatchPipeline(t *testing.T) {
	tr := smallTrace(t)
	cfg := testPipelineCfg(t, tr.Catalog[:50])

	want, err := pipeline.Run(context.Background(), tr.Records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "live", recordsToEvents(tr.Records), 501)
	got, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.Result, want)
	if got.Dirty != got.Result.Stats.Pairs {
		t.Fatalf("first tick dirty = %d, want all %d pairs", got.Dirty, got.Result.Stats.Pairs)
	}
	if want.Stats.Reported == 0 {
		t.Fatal("trace reported nothing; differential is vacuous")
	}

	// Second tick with nothing new: everything answers from the standing
	// state — no detection runs — and the result is identical.
	var detections atomic.Int64
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			detections.Add(1)
		}
		return nil
	}))
	again, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.Dirty != 0 {
		t.Fatalf("second tick dirty = %d, want 0", again.Dirty)
	}
	sameResult(t, again.Result, want)
	if n := detections.Load(); n != 0 {
		t.Errorf("idle tick ran %d detection(s); unchanged pairs must answer from the standing state", n)
	}
	if got := eng.inc.Pairs(); got != want.Stats.Pairs {
		t.Errorf("standing analysis holds %d pairs, want %d", got, want.Stats.Pairs)
	}

	// New events for one pair dirty exactly that pair.
	last := tr.Records[len(tr.Records)-1]
	pos := eng.Position("live")
	pos.Records++
	eng.Apply(Batch{Source: "live", Events: []Event{
		{Source: last.ClientIP, Destination: last.Host, TS: last.Timestamp + 60, Path: last.Path},
	}, Pos: pos})
	third, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if third.Dirty != 1 {
		t.Fatalf("third tick dirty = %d, want 1", third.Dirty)
	}
}

// TestTickSummarizeFailureKeepsDirtyMarks: a pair whose summary cannot be
// built fails the tick without costing the pairs sorted before it their
// dirty marks — once the bad pair is gone, the next tick analyzes both of
// its neighbours.
func TestTickSummarizeFailureKeepsDirtyMarks(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	for i := int64(0); i < 10; i++ {
		events = append(events,
			Event{Source: "a", Destination: "a.example", TS: 1000 + i*60},
			Event{Source: "z", Destination: "z.example", TS: 1000 + i*45})
	}
	eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: int64(len(events))}})
	eng.mu.Lock()
	bad := eng.newPair(pairKey{Src: "m", Dst: "m.example"}, 0) // sorts between the two; no event, so no summary
	eng.markDirty(bad)
	eng.mu.Unlock()

	if _, err := eng.Tick(context.Background()); err == nil {
		t.Fatal("tick over an unsummarizable pair succeeded")
	}
	eng.mu.Lock()
	marks := len(eng.dirty)
	eng.drop(bad)
	eng.mu.Unlock()
	if marks != 3 {
		t.Fatalf("%d dirty mark(s) left after the failed tick, want all 3", marks)
	}
	got, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dirty != 2 || got.Detected != 2 {
		t.Fatalf("tick after the failure analyzed %d pair(s) and detected %d, want both good pairs", got.Dirty, got.Detected)
	}
	sameAnalysis(t, "tick after the failure vs batch", got.Result, batchOver(t, eng))
}

func TestHostTimelineAndStaleMarking(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	eng.Apply(Batch{Source: "feed", Events: []Event{
		{Source: "h1", Destination: "beta.example", TS: 300},
		{Source: "h1", Destination: "alpha.example", TS: 100},
		{Source: "h1", Destination: "alpha.example", TS: 200},
		{Source: "h2", Destination: "alpha.example", TS: 150},
	}, Pos: Position{Records: 4}})

	tl := eng.HostTimeline("h1")
	if len(tl) != 2 || tl[0].Destination != "alpha.example" || tl[1].Destination != "beta.example" {
		t.Fatalf("timeline = %+v, want alpha then beta", tl)
	}
	if tl[0].Events != 2 || tl[0].First != 100 || tl[0].Last != 200 {
		t.Fatalf("alpha entry = %+v, want 2 events spanning [100,200]", tl[0])
	}
	if tl[0].Stale || tl[1].Stale {
		t.Fatal("healthy source marked stale")
	}

	// The feed goes unhealthy: every pair it contributed reads stale.
	eng.SetSourceHealth("feed", false)
	tl = eng.HostTimeline("h1")
	if !tl[0].Stale || !tl[1].Stale {
		t.Fatal("pairs of an unhealthy source not marked stale")
	}
}

// TestStaleEmptyWhileSourcesHealthy: with every tracked source healthy —
// never reported, reported healthy, or recovered — a tick lists no stale
// pair and no timeline entry reads stale.
func TestStaleEmptyWhileSourcesHealthy(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"feed", "other"} {
		eng.Apply(Batch{Source: name, Events: []Event{
			{Source: "h1", Destination: "a.example", TS: 100 + int64(i)},
			{Source: "h2", Destination: "b.example", TS: 150 + int64(i)},
		}, Pos: Position{Records: 2}})
	}
	requireNoStale := func(what string) {
		t.Helper()
		if got := mustTick(t, eng).Stale; got != nil {
			t.Fatalf("%s: tick marks %v stale, want nil", what, got)
		}
		for host, entries := range eng.Timelines() {
			for _, e := range entries {
				if e.Stale {
					t.Fatalf("%s: %s timeline entry %+v reads stale", what, host, e)
				}
			}
		}
	}
	requireNoStale("untracked sources")
	eng.SetSourceHealth("feed", true)
	requireNoStale("healthy source")
	eng.SetSourceHealth("other", false)
	if got := mustTick(t, eng).Stale; len(got) != 2 {
		t.Fatalf("unhealthy source: tick marks %v stale, want both pairs", got)
	}
	eng.SetSourceHealth("other", true)
	requireNoStale("recovered source")
}

// TestFailedTickRedirtiesItsPairs: a tick whose pipeline run fails —
// here because its context is already cancelled — has consumed the dirty
// list, so it marks every pair it took again, and the next tick analyzes
// all of them once more and agrees with a batch run.
func TestFailedTickRedirtiesItsPairs(t *testing.T) {
	tr := smallTrace(t)
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, tr.Catalog[:50])})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "proxy", recordsToEvents(tr.Records), 500)
	pairs := eng.Stats().Pairs
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Tick(ctx); err == nil {
		t.Fatal("a tick under a cancelled context succeeded")
	}
	eng.mu.Lock()
	marks := len(eng.dirty)
	eng.mu.Unlock()
	if marks != pairs {
		t.Fatalf("%d dirty mark(s) after the failed tick, want all %d pairs", marks, pairs)
	}
	got := mustTick(t, eng)
	if got.Dirty != pairs {
		t.Fatalf("tick after the failure analyzed %d pair(s), want all %d", got.Dirty, pairs)
	}
	sameAnalysis(t, "tick after the failure vs batch", got.Result, batchOver(t, eng))
}

// TestTickCountsListedPairs: a tick hands pairs to globally whitelisted
// destinations to the standing analysis as event counts. Over 10k dirty
// listed pairs of 200 events each, it allocates less per pair than one
// summary's interval slice, and still accounts every pair and event.
func TestTickCountsListedPairs(t *testing.T) {
	const pairs, events = 10000, 200
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, []string{"cdn.example"})})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Event, events)
	for i := 0; i < pairs; i++ {
		src, dst := fmt.Sprintf("h%d", i%100), fmt.Sprintf("s%d.cdn.example", i)
		for j := range batch {
			batch[j] = Event{Source: src, Destination: dst, TS: 1000 + int64(j)*60}
		}
		eng.Apply(Batch{Source: "s", Events: batch, Pos: Position{Records: int64((i + 1) * events)}})
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := eng.Tick(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	st := got.Result.Stats
	if got.Dirty != pairs || st.Pairs != pairs || st.InputEvents != pairs*events || st.AfterGlobalWhitelist != 0 {
		t.Fatalf("tick: dirty %d, funnel %+v; want %d listed pairs of %d events", got.Dirty, st, pairs, events)
	}
	perPair := (after.TotalAlloc - before.TotalAlloc) / pairs
	const interval = 8 * (events - 1) // a summary's []int64 of intervals
	t.Logf("tick allocated %d B per listed pair", perPair)
	if perPair >= interval {
		t.Fatalf("tick allocated %d B per listed pair, a summary's interval slice alone is %d B", perPair, interval)
	}
}
