package source

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/pipeline"
)

// soakDur is how long TestDaemonSoak keeps the daemon under randomized
// faults; `make soak` raises it well past the default smoke length.
var soakDur = flag.Duration("soak", 2*time.Second, "duration of the randomized-fault daemon soak")

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls /status until cond holds, failing the test after a
// generous deadline.
func waitStatus(t *testing.T, base string, what string, cond func(statusPayload) bool) statusPayload {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var p statusPayload
	for time.Now().Before(deadline) {
		if code := getJSON(t, base+"/status", &p); code == http.StatusOK && cond(p) {
			return p
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never reached: %s (last status %+v)", what, p)
	return p
}

// TestDaemonEndToEndQueryAndRestart runs the full service loop: a tailed
// log file feeds the engine, ticks publish results, the query endpoint
// serves them, and a restarted daemon resumes from its checkpoint without
// double-counting — with /ranked matching the batch pipeline exactly.
func TestDaemonEndToEndQueryAndRestart(t *testing.T) {
	tr := smallTrace(t)
	cfg := testPipelineCfg(t, tr.Catalog[:50])
	want, err := pipeline.Run(context.Background(), tr.Records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.Reported == 0 {
		t.Fatal("trace reported nothing; the query assertions would be vacuous")
	}
	total := int64(len(tr.Records))

	state := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, recordLines(tr.Records))

	start := func() (*Daemon, string, context.CancelFunc, chan error) {
		d, err := NewDaemon(DaemonConfig{
			Engine: Config{StateDir: state, Pipeline: cfg},
			Connectors: []Connector{
				&FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Millisecond},
			},
			TickInterval: 20 * time.Millisecond,
			CommitEvery:  500,
			QueryAddr:    "127.0.0.1:0",
			MaxQueries:   4,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
		go func() { done <- d.Run(ctx) }()
		var base string
		for i := 0; i < 1000; i++ {
			if addr := d.QueryBoundAddr(); addr != "" {
				base = "http://" + addr
				break
			}
			time.Sleep(time.Millisecond)
		}
		if base == "" {
			t.Fatal("query endpoint never bound")
		}
		return d, base, cancel, done
	}
	stop := func(d *Daemon, cancel context.CancelFunc, done chan error) {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("daemon run: %v", err)
		}
		if d.Degraded() {
			t.Fatal("daemon degraded after a clean run")
		}
	}

	checkRanked := func(base string) {
		t.Helper()
		var entries []RankedEntry
		if code := getJSON(t, base+"/ranked?n=100", &entries); code != http.StatusOK {
			t.Fatalf("/ranked = %d, want 200", code)
		}
		if len(entries) != len(want.Reported) {
			t.Fatalf("/ranked has %d entries, want %d", len(entries), len(want.Reported))
		}
		for i, e := range entries {
			w := want.Reported[i]
			if e.Rank != i+1 || e.Source != w.Source || e.Destination != w.Destination ||
				e.Score != w.Score || e.LMScore != w.LMScore {
				t.Fatalf("/ranked[%d] = %+v, want %s->%s score=%v lm=%v",
					i, e, w.Source, w.Destination, w.Score, w.LMScore)
			}
			if e.Stale {
				t.Fatalf("/ranked[%d] stale with a healthy source", i)
			}
		}
	}

	d, base, cancel, done := start()
	full := waitStatus(t, base, "full ingest and a published tick", func(p statusPayload) bool {
		return p.Stats.Events == total && p.LastTick > 0
	})
	// A generation counts the events applied by the time it published, not
	// only those its tick saw; the next tick's ranking covers them all.
	waitStatus(t, base, "a tick over the full ingest", func(p statusPayload) bool {
		return p.LastTick > full.LastTick
	})
	checkRanked(base)
	var tl []TimelineEntry
	src := want.Reported[0].Source
	if code := getJSON(t, base+"/host?src="+src, &tl); code != http.StatusOK {
		t.Fatalf("/host = %d, want 200", code)
	}
	found := false
	for _, e := range tl {
		if e.Destination == want.Reported[0].Destination {
			found = true
		}
	}
	if !found {
		t.Fatalf("/host timeline for %s misses the reported destination", src)
	}
	if code := getJSON(t, base+"/host", &tl); code != http.StatusBadRequest {
		t.Fatalf("/host without src = %d, want 400", code)
	}
	stop(d, cancel, done)

	// Restart on the same state: the follower resumes at its committed
	// offset, nothing is re-counted, and the results come straight back.
	d2, base2, cancel2, done2 := start()
	p := waitStatus(t, base2, "restored state and a fresh tick", func(p statusPayload) bool {
		return p.LastTick > 0
	})
	if p.Stats.Events != total {
		t.Fatalf("events after restart = %d, want %d (no double-count)", p.Stats.Events, total)
	}
	if p.Stats.DetectionsRestored == 0 {
		t.Fatalf("restart reused no stored detection: %+v", p.Stats)
	}
	checkRanked(base2)

	// New lines appended while running land incrementally — and only once.
	last := tr.Records[len(tr.Records)-1]
	appendFile(t, logPath, logLine(last.Timestamp+60, last.ClientIP, last.Host, last.Path))
	waitStatus(t, base2, "the appended event", func(p statusPayload) bool {
		return p.Stats.Events == total+1
	})
	stop(d2, cancel2, done2)
}

// TestDaemonSoak keeps the daemon under randomized transient faults for
// -soak, then checks the surviving state converges to the clean batch
// run. BAYWATCH_FAULT_SCHEDULE overrides the random schedule with an
// explicit one (error/delay rules; crash rules belong to the dedicated
// crash-convergence tests, which run them under a restart harness).
func TestDaemonSoak(t *testing.T) {
	tr := smallTrace(t)
	recs := tr.Records
	if len(recs) > 1500 {
		recs = recs[:1500]
	}
	cfg := testPipelineCfg(t, tr.Catalog[:50])
	want, err := pipeline.Run(context.Background(), recs, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var sched *faultinject.Scheduler
	if val := os.Getenv(EnvScheduleVar); val != "" {
		schedule, err := DecodeSchedule(val)
		if err != nil {
			t.Fatalf("%s: %v", EnvScheduleVar, err)
		}
		sched = schedule.Scheduler()
		t.Logf("soak: using %s (%d rules)", EnvScheduleVar, len(schedule.Rules))
	} else {
		sched = faultinject.New(20260807)
		sched.RandomErrors(0.01, errors.New("soak: injected fault"))
	}
	restore := faultinject.Install(sched.Hook())
	t.Cleanup(restore)

	state := t.TempDir()
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, recordLines(recs))
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: state, Pipeline: cfg},
		Connectors: []Connector{
			&FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Millisecond},
		},
		TickInterval:     25 * time.Millisecond,
		CommitEvery:      300,
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
	// Give the retries whatever extra time they need to drain the source
	// fully — the injected faults delay ingestion, they must not lose it.
	grace := time.Now().Add(30 * time.Second)
	for d.Engine().Stats().Events < int64(len(recs)) && time.Now().Before(grace) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	restore() // nothing is running; verify without interference

	st := d.Engine().Stats()
	if st.Events != int64(len(recs)) {
		t.Fatalf("soak drained %d events, want %d", st.Events, len(recs))
	}
	got, err := d.Engine().Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got.Result, want)
	if hits := sched.TotalHits(); hits == 0 {
		t.Error("soak exercised no fault points")
	} else {
		t.Logf("soak: %d fault-point hits, %d restarts, %d ticks, degraded=%v",
			hits, d.sups[0].status().Restarts, st.Ticks, d.Degraded())
	}
}

// TestDaemonTicksOnRestart pins the restart path: a daemon started on a
// committed state analyzes the recovered pairs on entry to Run instead of
// idling a TickInterval first — here an hour, so only the entry tick can
// produce the ranking. The first start finds events but no detections and
// detects every unlisted pair; its shutdown commit saves them, so the
// second start's entry tick detects none, and /status says so.
func TestDaemonTicksOnRestart(t *testing.T) {
	tr := smallTrace(t)
	cfg := testPipelineCfg(t, tr.Catalog[:50])
	want, err := pipeline.Run(context.Background(), tr.Records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	state := t.TempDir()
	eng, err := OpenEngine(Config{StateDir: state, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "proxy", recordsToEvents(tr.Records), 500)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}

	for _, start := range []struct {
		what                       string
		detected, restored, commit int
	}{
		{"cold start", want.Stats.AfterLocalWhitelist, 0, 1},
		{"warm start", 0, want.Stats.AfterLocalWhitelist, 0},
	} {
		d, err := NewDaemon(DaemonConfig{
			Engine: Config{StateDir: state, Pipeline: cfg},
			Connectors: []Connector{
				&FileFollower{Path: filepath.Join(t.TempDir(), "absent.log"), SourceName: "proxy", PollInterval: time.Millisecond},
			},
			TickInterval: time.Hour,
			Logf:         t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
		go func() { done <- d.Run(ctx) }()
		deadline := time.Now().Add(30 * time.Second)
		for d.Snapshot() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		snap := d.Snapshot()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("%s: daemon run: %v", start.what, err)
		}
		if snap == nil {
			t.Fatalf("%s: no tick ran on restart; the recovered pairs waited for the first TickInterval", start.what)
		}
		sameAnalysis(t, start.what, snap.Result, want)
		var status statusPayload
		rec := queryGet(t, d.QueryHandler(), "/status", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
			t.Fatalf("%s: /status: %v", start.what, err)
		}
		if snap.Detected != start.detected || status.DetectedPairs != start.detected ||
			status.Stats.DetectionsRestored != int64(start.restored) || status.Stats.DetectionsStale != 0 {
			t.Fatalf("%s: entry tick detected %d pair(s); /status says %d detected, %d restored, %d stale; want %d detected and %d restored",
				start.what, snap.Detected, status.DetectedPairs, status.Stats.DetectionsRestored, status.Stats.DetectionsStale,
				start.detected, start.restored)
		}
		// Only the cold start has anything to save at shutdown.
		if got := d.Engine().Stats().Commits; got != int64(start.commit) {
			t.Fatalf("%s: %d commit(s) wrote a frame, want %d", start.what, got, start.commit)
		}
	}
}

// burstConn delivers one seed batch, then, once released, a burst of
// batches as fast as the sink takes them, noting the engine's uncommitted
// count after each delivery; it then idles until cancelled.
type burstConn struct {
	eng           func() *Engine
	seed          []Event
	batches, size int
	release, done chan struct{}
	peak          atomic.Int64
}

func (c *burstConn) Name() string { return "burst" }

func (c *burstConn) Run(ctx context.Context, resume Position, sink Sink) error {
	pos := resume
	if pos.Records == 0 {
		pos.Records = int64(len(c.seed))
		sink.Deliver(Batch{Source: "burst", Events: c.seed, Pos: pos})
	}
	select {
	case <-c.release:
	case <-ctx.Done():
		return ctxCause(ctx)
	}
	for i := 0; i < c.batches; i++ {
		events := make([]Event, c.size)
		for j := range events {
			n := pos.Records + int64(j)
			events[j] = Event{Source: fmt.Sprintf("h%d", n%40), Destination: "burst.example", TS: 10_000 + n}
		}
		pos.Records += int64(c.size)
		sink.Deliver(Batch{Source: "burst", Events: events, Pos: pos})
		notePeak(&c.peak, c.eng().Uncommitted())
	}
	close(c.done)
	<-ctx.Done()
	return ctxCause(ctx)
}

// notePeak raises peak to n when n is higher.
func notePeak(peak *atomic.Int64, n int64) {
	for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
	}
}

// TestCountCommitBoundWhileLoopBusy: count-triggered commits are requests
// to the daemon loop, so a connector never waits for one — and when the
// loop cannot serve them, here because it is parked in a tick's detection
// job, the connector keeps delivering and commits inline at twice
// CommitEvery, holding uncommitted events under 2×CommitEvery plus one
// batch. Once the loop runs again every event commits, and a restart
// reads back exactly the live store.
func TestCountCommitBoundWhileLoopBusy(t *testing.T) {
	const every, size, batches = 100, 7, 150
	sched := faultinject.New(1)
	sched.HangAt(faultinject.PointPipelineDetect, 1)
	// Every pair's detection is one traversal of the bare point, so the
	// first detection of the first tick hangs whichever pair it is.
	defer faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			return sched.Hook()(string(faultinject.PointPipelineDetect))
		}
		return nil
	})()
	defer sched.ReleaseHangs()

	var seed []Event
	for i := int64(0); i < 30; i++ {
		seed = append(seed, Event{Source: "h-seed", Destination: "seed.example", TS: 1000 + 60*i})
	}
	cfg := Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)}
	conn := &burstConn{seed: seed, batches: batches, size: size, release: make(chan struct{}), done: make(chan struct{})}
	d, err := NewDaemon(DaemonConfig{
		Engine:       cfg,
		Connectors:   []Connector{conn},
		TickInterval: 10 * time.Millisecond,
		CommitEvery:  every,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := d.Engine()
	conn.eng = d.Engine
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
	go func() { done <- d.Run(ctx) }()
	stop := sync.OnceValue(func() error {
		sched.ReleaseHangs()
		cancel()
		return <-done
	})
	defer stop()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("never reached: %s", what)
			}
		}
	}
	waitFor("the loop parked in a tick", func() bool { return sched.ActiveHangs() == 1 })
	before := eng.Stats().Commits
	close(conn.release)
	polled := make(chan struct{})
	var peak atomic.Int64
	// bounded goroutine: samples Uncommitted until the burst is delivered, awaited on polled
	go func() {
		defer close(polled)
		for {
			notePeak(&peak, eng.Uncommitted())
			select {
			case <-conn.done:
				return
			default:
			}
		}
	}()
	select {
	case <-polled:
	case <-time.After(30 * time.Second):
		t.Fatal("the burst was not delivered while the loop was parked")
	}
	notePeak(&peak, conn.peak.Load())

	if sched.ActiveHangs() != 1 {
		t.Fatal("the tick finished during the burst; the test never had the loop busy")
	}
	inline := eng.Stats().Commits - before
	if inline < batches*size/(2*every)-1 {
		t.Fatalf("%d inline commit(s) during a %d-event burst with the loop parked, want about one per %d events",
			inline, batches*size, 2*every)
	}
	if p := peak.Load(); p >= 2*every+size || p < every {
		t.Fatalf("uncommitted events peaked at %d, want within [%d, %d)", p, every, 2*every+size)
	}

	sched.ReleaseHangs()
	total := int64(len(seed) + batches*size)
	waitFor("every event committed", func() bool {
		return eng.Position("burst").Records == total && eng.Uncommitted() == 0
	})
	if err := stop(); err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	if d.commitFails.Load() != 0 {
		t.Fatal("a commit failed")
	}
	want := stateOf(t, eng)
	if want.Events != total {
		t.Fatalf("store holds %d events, want %d", want.Events, total)
	}
	requireSameState(t, "restart after the burst", stateOf(t, reopenCopy(t, cfg)), want)
}

// stepConn delivers one batch of n events per value received on step and
// reports each delivery's return on delivered.
type stepConn struct {
	n               int
	step, delivered chan struct{}
}

func (c *stepConn) Name() string { return "step" }

func (c *stepConn) Run(ctx context.Context, resume Position, sink Sink) error {
	pos := resume
	for {
		select {
		case <-c.step:
		case <-ctx.Done():
			return ctxCause(ctx)
		}
		events := make([]Event, c.n)
		for j := range events {
			n := pos.Records + int64(j)
			events[j] = Event{Source: fmt.Sprintf("h%d", n%7), Destination: "step.example", TS: 1000 + 30*n}
		}
		pos.Records += int64(c.n)
		sink.Deliver(Batch{Source: "step", Events: events, Pos: pos})
		select {
		case c.delivered <- struct{}{}:
		case <-ctx.Done():
			return ctxCause(ctx)
		}
	}
}

// TestCountCommitRunsOnDaemonLoop: the delivery that reaches CommitEvery
// returns at once and the checkpoint is written by the daemon loop — a
// hang in its fsync parks the loop, not the connector. When the hang
// releases as an error the commit fails, and the next request rewrites
// the checkpoint, which a restart reads back as the live store.
func TestCountCommitRunsOnDaemonLoop(t *testing.T) {
	sched := faultinject.New(1)
	sched.HangAt(faultinject.PointSourceCheckpointSync.Keyed("checkpoint"), 1) // the first commit is a snapshot
	defer faultinject.Install(sched.Hook())()
	defer sched.ReleaseHangs()

	cfg := Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)}
	conn := &stepConn{n: 100, step: make(chan struct{}), delivered: make(chan struct{})}
	d, err := NewDaemon(DaemonConfig{
		Engine:       cfg,
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		CommitEvery:  100,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
	go func() { done <- d.Run(ctx) }()
	stop := sync.OnceValue(func() error {
		sched.ReleaseHangs()
		cancel()
		return <-done
	})
	defer stop()

	conn.step <- struct{}{}
	select {
	case <-conn.delivered:
	case <-time.After(30 * time.Second):
		t.Fatal("the delivery that reached CommitEvery did not return: the connector waited on the checkpoint")
	}
	for deadline := time.Now().Add(30 * time.Second); sched.ActiveHangs() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon loop never took the requested commit")
		}
	}
	sched.ReleaseHangs()
	for deadline := time.Now().Add(30 * time.Second); d.commitFails.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the released hang did not fail the commit")
		}
	}
	conn.step <- struct{}{}
	<-conn.delivered
	eng := d.Engine()
	for deadline := time.Now().Add(30 * time.Second); eng.Uncommitted() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second request never committed")
		}
	}
	if st := eng.Stats(); st.Commits != 1 || st.Compactions != 1 || st.Events != 200 {
		t.Fatalf("stats %+v, want the 200 events in one rewritten checkpoint", st)
	}
	requireSameState(t, "restart after the retried commit", stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
}

// TestTickCommitSavesDetections: the daemon commits after a tick, not
// before it, so a tick's fresh detections are durable in the same loop
// turn — here with no clock tick in reach and no new event to trigger a
// commit.
func TestTickCommitSavesDetections(t *testing.T) {
	tr := smallTrace(t)
	cfg := testPipelineCfg(t, tr.Catalog[:50])
	state := t.TempDir()
	eng, err := OpenEngine(Config{StateDir: state, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "proxy", recordsToEvents(tr.Records), 500)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}

	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: state, Pipeline: cfg},
		Connectors: []Connector{
			&FileFollower{Path: filepath.Join(t.TempDir(), "absent.log"), SourceName: "proxy", PollInterval: time.Millisecond},
		},
		TickInterval: time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
	go func() { done <- d.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon run: %v", err)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for d.Snapshot() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	snap := d.Snapshot()
	if snap == nil || snap.Detected == 0 {
		t.Fatalf("restart tick = %+v, want one that detects the recovered pairs", snap)
	}
	for d.Engine().Stats().Commits == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d.Engine().Stats().Commits == 0 {
		t.Fatal("no commit followed the tick; its detections wait for shutdown")
	}

	// The running daemon writes nothing more, so its checkpoint can be
	// copied as it stands.
	data, err := os.ReadFile(checkpointPath(state))
	if err != nil {
		t.Fatal(err)
	}
	copyDir := t.TempDir()
	writeFile(t, checkpointPath(copyDir), string(data))
	re, err := OpenEngine(Config{StateDir: copyDir, Pipeline: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Stats().DetectionsRestored; got != int64(snap.Detected) {
		t.Fatalf("the copied state restores %d detection(s), want the tick's %d", got, snap.Detected)
	}
}

// TestStatusFunnelMatchesBatch: /status carries the published tick's
// filtering funnel — absent before the first tick — and once the daemon
// has drained a log, it is the batch pipeline's funnel over the same
// records.
func TestStatusFunnelMatchesBatch(t *testing.T) {
	tr := smallTrace(t)
	cfg := testPipelineCfg(t, tr.Catalog[:50])
	want, err := pipeline.Run(context.Background(), tr.Records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, recordLines(tr.Records))
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: t.TempDir(), Pipeline: cfg},
		Connectors: []Connector{
			&FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Millisecond},
		},
		TickInterval: 20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	status := func() (statusPayload, map[string]json.RawMessage) {
		t.Helper()
		body := queryGet(t, d.QueryHandler(), "/status", "").Body.Bytes()
		var p statusPayload
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &p); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		return p, fields
	}
	if _, fields := status(); fields["funnel"] != nil {
		t.Fatalf("/status shows a funnel before the first tick: %s", fields["funnel"])
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled by the test and awaited on done
	go func() { done <- d.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	var p statusPayload
	for time.Now().Before(deadline) {
		if p, _ = status(); p.Funnel != nil && p.Funnel.InputEvents == len(tr.Records) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	if p.Funnel == nil {
		t.Fatal("/status never showed a funnel")
	}
	if *p.Funnel != *funnelOf(want.Stats) {
		t.Fatalf("/status funnel after the drain:\n got %+v\nwant %+v", *p.Funnel, *funnelOf(want.Stats))
	}
}
