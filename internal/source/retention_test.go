package source

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

// retentionEvents builds a deterministic, timestamp-ordered stream: a
// handful of short-lived "old" pairs that go idle early, plus one
// long-running beacon that keeps the stream's high-water mark advancing
// past the retention horizon. Old-pair events are spaced exactly one
// retention horizon apart, so an incompletely-delivered old pair can
// never be evicted mid-stream (its newest event always trails the
// ordered stream's maximum by less than the horizon) — eviction happens
// only once a pair is truly done.
func retentionEvents(oldPairs, oldEvents int, oldGap int64, beaconEvents int) []Event {
	var events []Event
	for i := 0; i < oldPairs; i++ {
		for j := 0; j < oldEvents; j++ {
			events = append(events, Event{
				Source:      fmt.Sprintf("h-old-%d", i),
				Destination: fmt.Sprintf("old%d.example", i),
				TS:          1000 + int64(i)*7 + int64(j)*oldGap,
			})
		}
	}
	for j := 0; j < beaconEvents; j++ {
		events = append(events, Event{
			Source:      "h-live",
			Destination: "beacon.example",
			TS:          1000 + int64(j)*30,
		})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })
	return events
}

// TestRetentionEvictsIdlePairs pins the basic retention contract: a pair
// idle past RetainWindows lateness windows is dropped from the store at
// the next commit, whose checkpoint frame records the eviction, and from
// the standing analysis at the next tick; a restarted engine loads only
// live pairs; and a pair seen again after eviction restarts with a fresh
// history.
func TestRetentionEvictsIdlePairs(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		StateDir:      dir,
		Lateness:      100,
		RetainWindows: 3, // horizon = 300s
		Pipeline:      testPipelineCfg(t, nil),
	}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := retentionEvents(3, 4, 300, 101) // old pairs end ~1914, beacon runs to 4000
	applyAll(eng, "s", events, len(events))

	// First tick sees every pair; nothing is evictable yet (no commit).
	res, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Stats.Pairs != 4 {
		t.Fatalf("pre-eviction tick saw %d pairs, want 4", res.Result.Stats.Pairs)
	}

	// Commit: maxTS=4000, cutoff=3700 — the old pairs (idle since ~1914)
	// are evicted and the checkpoint holds the beacon alone.
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Pairs != 1 || st.Evicted != 3 {
		t.Fatalf("post-commit stats = %+v, want 1 pair / 3 evicted", st)
	}

	// The next tick consumes the evictions: the standing result shrinks to
	// the surviving pair, identically to a recompute over it.
	res, err = eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Result.Stats.Pairs != 1 {
		t.Fatalf("post-eviction tick saw %d pairs, want 1", res.Result.Stats.Pairs)
	}
	if res.Result.Stats.InputEvents != 101 {
		t.Fatalf("post-eviction InputEvents = %d, want 101", res.Result.Stats.InputEvents)
	}
	if got := eng.inc.Pairs(); got != 1 {
		t.Fatalf("standing analysis retains %d pairs after eviction, want 1", got)
	}

	// A restarted engine loads only live state.
	eng2, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := eng2.Stats()
	if st2.Pairs != 1 || st2.Evicted != 3 || st2.Events != 101 {
		t.Fatalf("restarted stats = %+v, want 1 pair / 3 evicted / 101 events", st2)
	}

	// Resurrection: an evicted pair seen again (above the watermark)
	// restarts with a fresh history — by design, documented in DESIGN.md.
	eng2.Apply(Batch{Source: "s", Events: []Event{
		{Source: "h-old-0", Destination: "old0.example", TS: 4500},
	}, Pos: Position{Records: int64(len(events)) + 1}})
	tl := eng2.HostTimeline("h-old-0")
	if len(tl) != 1 || tl[0].Events != 1 || tl[0].First != 4500 {
		t.Fatalf("resurrected pair timeline = %+v, want a single fresh event", tl)
	}
}

// TestRetentionRejectsMisconfiguration pins the config invariant the
// determinism argument rests on: the eviction cutoff must trail the
// watermark, which requires a lateness bound.
func TestRetentionRejectsMisconfiguration(t *testing.T) {
	if _, err := OpenEngine(Config{StateDir: t.TempDir(), RetainWindows: 2}); err == nil {
		t.Fatal("RetainWindows without Lateness must be rejected")
	}
	if _, err := OpenEngine(Config{StateDir: t.TempDir(), RetainWindows: -1, Lateness: 10}); err == nil {
		t.Fatal("negative RetainWindows must be rejected")
	}
}

// TestCrashAtEveryRetentionPointConverges extends the crash-convergence
// anchor across retention: the workload commits (and therefore evicts)
// repeatedly, dies once at every traversed injection point — including
// faultinject.PointSourceCompactPlan, faultinject.PointSourceEvictApply
// and both checkpoint write paths (the evictions here ride a delta frame
// and are then compacted away) — reopens from the log, and must converge
// to the never-crashed run's final report, pair store and eviction
// accounting.
func TestCrashAtEveryRetentionPointConverges(t *testing.T) {
	events := retentionEvents(3, 4, 300, 101)
	pcfg := testPipelineCfg(t, nil)
	ecfg := func(dir string) Config {
		return Config{StateDir: dir, Lateness: 100, RetainWindows: 3, Pipeline: pcfg}
	}
	workload := func(dir string, noted *detectionWrites) func() error {
		return func() error {
			eng, err := OpenEngine(ecfg(dir))
			if err != nil {
				return err
			}
			const batch = 32
			n := 0
			pos := eng.Position("s")
			for int(pos.Records) < len(events) {
				end := int(pos.Records) + batch
				if end > len(events) {
					end = len(events)
				}
				chunk := events[pos.Records:end]
				pos.Records = int64(end)
				eng.Apply(Batch{Source: "s", Events: chunk, Pos: pos})
				// Ticks both before and after the evicting commits, so the
				// standing state's removal path is itself crash-covered and
				// every later commit has detections to save.
				if n++; n%2 == 1 {
					if err := noted.commit(eng); err != nil {
						return err
					}
				} else if _, err := eng.Tick(context.Background()); err != nil {
					return err
				}
			}
			return noted.commit(eng)
		}
	}
	finalState := func(dir string) (*pipeline.Result, Stats) {
		eng, err := OpenEngine(ecfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.Recovery().Quarantined) != 0 {
			t.Fatalf("converged state needed quarantine: %+v", eng.Recovery())
		}
		res, err := eng.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Result, eng.Stats()
	}

	// Fault-free enumeration run.
	cleanDir := t.TempDir()
	var noted detectionWrites
	var want *pipeline.Result
	var wantStats Stats
	trace := traceClean(t, workload(cleanDir, &noted), func() { want, wantStats = finalState(cleanDir) })
	requireBothWritePaths(t, trace)
	noted.requireBoth(t)
	requirePoints(t, pointsIn(trace),
		faultinject.PointSourceCompactPlan,
		faultinject.PointSourceEvictApply,
		faultinject.PointSourceCommitDone,
		faultinject.PointSourceDetectTick,
	)
	if wantStats.Evicted == 0 {
		t.Fatal("clean workload evicted nothing; retention crash coverage is vacuous")
	}
	if wantStats.Pairs != 1 {
		t.Fatalf("clean workload retained %d pairs, want 1", wantStats.Pairs)
	}
	if len(trace) == 0 {
		t.Fatal("no injection points traversed; crash enumeration is vacuous")
	}

	// One run per traversal, dying exactly there (a worker's detection
	// fails there instead).
	for n, h := range trace {
		dir := t.TempDir()
		faultAt(t, h, workload(dir, nil))
		got, gotStats := finalState(dir)
		sameAnalysis(t, fmt.Sprintf("fault at hit %d", n+1), got, want)
		if gotStats.Events != wantStats.Events || gotStats.Watermark != wantStats.Watermark ||
			gotStats.Pairs != wantStats.Pairs || gotStats.Evicted != wantStats.Evicted {
			t.Fatalf("fault at hit %d: state diverged:\n got %+v\nwant %+v", n+1, gotStats, wantStats)
		}
	}
}

// churnRecords builds the retention soak's input: three persistent pairs
// (one clean beacon plus two steady low-rate services) that span the
// whole stream, and many short-lived churn pairs that burst early and go
// silent — the lifetime-unique traffic retention exists to shed. Returns
// the full stream (timestamp-ordered) and the persistent subset.
func churnRecords(churnPairs int) (all, persistent []*proxylog.Record) {
	mk := func(ts int64, ip, host, path string) *proxylog.Record {
		return &proxylog.Record{
			Timestamp: ts, ClientIP: ip, Method: "GET", Scheme: "http",
			Host: host, Path: path, Status: 200, BytesOut: 512, BytesIn: 128,
			UserAgent: "soak-agent",
		}
	}
	for j := int64(0); j <= 10000/60; j++ {
		persistent = append(persistent, mk(1000+j*60, "10.1.0.1", "beacon-c2.test", "/gate.php"))
	}
	for j := int64(0); j <= 10000/150; j++ {
		persistent = append(persistent, mk(1000+j*150, "10.1.0.2", "steady1.test", "/poll"))
	}
	for j := int64(0); j <= 10000/155; j++ {
		persistent = append(persistent, mk(1000+j*155, "10.1.0.3", "steady2.test", "/sync"))
	}
	all = append(all, persistent...)
	for i := 0; i < churnPairs; i++ {
		for j := int64(0); j < 3; j++ {
			all = append(all, mk(1000+int64(i)*20+j*90,
				fmt.Sprintf("10.2.%d.1", i), fmt.Sprintf("churn-%02d.test", i), "/once"))
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Timestamp < all[j].Timestamp })
	sort.SliceStable(persistent, func(i, j int) bool { return persistent[i].Timestamp < persistent[j].Timestamp })
	return all, persistent
}

// TestDaemonSoakRetention keeps a retention-enabled daemon under
// randomized transient faults while lifetime-unique pairs churn through
// it, then checks (a) the standing result converges to a clean batch run
// over the persistent traffic alone, (b) the pair store and checkpoint
// are bounded by active traffic — every churn pair evicted, the log within
// its size contract, none of them back after a restart — and (c) the
// eviction accounting is exact.
func TestDaemonSoakRetention(t *testing.T) {
	const churnPairs = 40
	all, persistent := churnRecords(churnPairs)
	cfg := testPipelineCfg(t, nil)
	want, err := pipeline.Run(context.Background(), persistent, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Reported == 0 {
		t.Fatal("persistent traffic reported nothing; convergence would be vacuous")
	}

	sched := faultinject.New(20260807)
	sched.RandomErrors(0.01, errors.New("soak: injected fault"))
	restore := faultinject.Install(sched.Hook())
	t.Cleanup(restore)

	state := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, recordLines(all))
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{
			StateDir:      state,
			Lateness:      200,
			RetainWindows: 2,
			Pipeline:      cfg,
		},
		Connectors: []Connector{
			&FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Millisecond},
		},
		TickInterval:     25 * time.Millisecond,
		CommitEvery:      100,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Millisecond,
		RetryBase:        time.Millisecond,
		RetryMax:         5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled at the soak deadline and awaited on done
	go func() { done <- d.Run(ctx) }()

	deadline := time.Now().Add(*soakDur)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	// Evicted events leave Stats.Events, so drain on the source position
	// (which counts every delivered record), not the store size.
	grace := time.Now().Add(30 * time.Second)
	for d.Engine().Position("proxy").Records < int64(len(all)) && time.Now().Before(grace) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	restore() // nothing is running; verify without interference

	if got := d.Engine().Position("proxy").Records; got != int64(len(all)) {
		t.Fatalf("soak drained %d records, want %d", got, len(all))
	}
	// Run's final commit evicted the last idle churn pairs; this tick
	// folds those removals into the standing result.
	got, err := d.Engine().Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.Result, want)

	st := d.Engine().Stats()
	if st.Pairs != 3 || st.Evicted != churnPairs || st.Events != int64(len(persistent)) {
		t.Fatalf("bounded-state stats = %+v, want 3 pairs / %d evicted / %d events",
			st, churnPairs, len(persistent))
	}
	// The file obeys the log's size contract (and names no churn pair if
	// the last commit happened to compact it), and a restart from it holds
	// exactly the live engine's state: no evicted pair comes back.
	requireLogBounded(t, state, "churn-")
	requireSameState(t, "restart after the soak", stateOf(t, reopenCopy(t, d.Engine().cfg)), stateOf(t, d.Engine()))
	if hits := sched.TotalHits(); hits == 0 {
		t.Error("soak exercised no fault points")
	} else {
		t.Logf("retention soak: %d fault-point hits, %d evicted, %d ticks", hits, st.Evicted, st.Ticks)
	}
}

// TestSnapshotCreationOrderSurvivesChurn: pairs go idle, are evicted and
// come back under the same key, round after round, with a compaction every
// few commits. Every commit reopens to the live store, and a reopened
// engine rebuilds the live creation order; an evicted pair's history is
// released at once, the husks left in the creation order never outnumber
// the live pairs, and a compaction drops every husk but its own evictions'.
func TestSnapshotCreationOrderSurvivesChurn(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 2, Pipeline: testPipelineCfg(t, nil)}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveOrder := func(e *Engine) []pairKey {
		e.mu.Lock()
		defer e.mu.Unlock()
		var keys []pairKey
		for _, h := range e.order {
			if !h.gone {
				keys = append(keys, h.key)
			}
		}
		return keys
	}
	const keys, rounds = 12, 48
	var husks []*pairHistory
	evictions := map[pairKey]int{}
	records, clock := int64(0), int64(10_000)
	for round := 0; round < rounds; round++ {
		// Key i is active five rounds in ten, from a phase of its own; idle
		// for five rounds of 50 s, it trails the 200 s horizon and goes.
		var events []Event
		for i := 0; i < keys; i++ {
			if (round+i)/5%2 != 0 {
				continue
			}
			for j := int64(0); j < 3; j++ {
				ev := Event{Source: fmt.Sprintf("h%d", i%4), Destination: fmt.Sprintf("d%d.example", i), TS: clock + 10*j + int64(i)}
				if j == 1 {
					ev.Path = fmt.Sprintf("/p%d", round%3)
				}
				events = append(events, ev)
			}
		}
		clock += 50
		records += int64(len(events))
		eng.Apply(Batch{Source: "feed", Events: events, Pos: Position{Records: records}})

		compact := round%4 == 3
		eng.mu.Lock()
		before := maps.Clone(eng.pairs)
		eng.suspect = compact
		eng.mu.Unlock()
		if err := eng.Commit(); err != nil {
			t.Fatalf("round %d: commit: %v", round, err)
		}
		eng.mu.Lock()
		for k, h := range before {
			if eng.pairs[k] == nil {
				husks = append(husks, h)
				evictions[k]++
			}
		}
		for _, h := range husks {
			if !h.gone || h.ts != nil || h.paths != nil || h.srcs != nil || h.det != nil {
				t.Fatalf("round %d: evicted pair %s still holds its history (%d events)", round, h.key, len(h.ts))
			}
		}
		if 2*eng.gone > len(eng.order) || len(eng.order)-eng.gone != len(eng.pairs) {
			t.Fatalf("round %d: creation order holds %d entries, %d of them evicted, for %d live pairs",
				round, len(eng.order), eng.gone, len(eng.pairs))
		}
		for _, h := range eng.order {
			if compact && h.gone && before[h.key] != h {
				t.Fatalf("round %d: the compaction kept an older husk of %s", round, h.key)
			}
		}
		eng.mu.Unlock()

		re := reopenCopy(t, cfg)
		requireSameState(t, fmt.Sprintf("round %d: reopen", round), stateOf(t, re), stateOf(t, eng))
		if got, want := liveOrder(re), liveOrder(eng); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: reopened creation order %v, live %v", round, got, want)
		}
		if round%6 == 5 {
			mustTick(t, eng)
			eng.mu.Lock()
			if len(eng.dirty) != 0 {
				t.Fatalf("round %d: %d dirty mark(s) survive a tick", round, len(eng.dirty))
			}
			eng.mu.Unlock()
		}
	}
	again := 0
	for _, n := range evictions {
		if n >= 2 {
			again++
		}
	}
	if st := eng.Stats(); again < keys/2 || st.Compactions < rounds/4 {
		t.Fatalf("churn too tame: %d key(s) evicted twice or more, stats %+v", again, st)
	}
}
