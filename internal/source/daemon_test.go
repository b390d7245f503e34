package source

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"os"
	"path/filepath"
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
	waitStatus(t, base, "full ingest and a published tick", func(p statusPayload) bool {
		return p.Stats.Events == total && p.LastTick > 0
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
	if val := os.Getenv(faultinject.EnvScheduleVar); val != "" {
		schedule, err := faultinject.DecodeSchedule(val)
		if err != nil {
			t.Fatalf("%s: %v", faultinject.EnvScheduleVar, err)
		}
		sched = schedule.Scheduler()
		t.Logf("soak: using %s (%d rules)", faultinject.EnvScheduleVar, len(schedule.Rules))
	} else {
		sched = faultinject.New(20260807)
		sched.RandomErrors(0.01, errors.New("soak: injected fault"))
	}
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil) })

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
	SetFaultHook(nil) // nothing is running; verify without interference

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
