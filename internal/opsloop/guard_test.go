package opsloop

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/guard"
	"baywatch/internal/langmodel"
	"baywatch/internal/mapreduce"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

// TestCancellationMidIngestRollsBack cancels an ingest while its daily
// pipeline is wedged in detection: the ingest must fail promptly, leave
// the loop's in-memory and durable state at the previous day, drain its
// abandoned goroutines, and allow both a retry and a clean reopen.
func TestCancellationMidIngestRollsBack(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr := generateTrace(t, 2, nil)
	days := splitDays(tr, 2)
	dir := t.TempDir()
	cfg := Config{StateDir: dir, Pipeline: testPipelineConfig(t, tr)}
	// A long candidate deadline routes detection through the abandonable
	// bounded path; promptness must come from cancellation alone.
	cfg.Pipeline.Guard.CandidateTimeout = time.Hour

	loop, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.IngestDay(context.Background(), days[0]); err != nil {
		t.Fatalf("day 1: %v", err)
	}
	histAfterDay1 := loop.HistoryPairs()

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	engaged := make(chan struct{})
	var once sync.Once
	pipeline.SetFaultHook(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			hang := false
			once.Do(func() { hang = true })
			if hang {
				close(engaged)
				<-release
			}
		}
		return nil
	})
	t.Cleanup(func() { pipeline.SetFaultHook(nil) })

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := loop.IngestDay(ctx, days[1])
		done <- err
	}()
	select {
	case <-engaged:
	case <-time.After(30 * time.Second):
		t.Fatal("injected hang never engaged")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("IngestDay did not return promptly after cancellation")
	}
	if loop.DaysIngested() != 1 {
		t.Fatalf("days = %d after cancelled ingest, want 1", loop.DaysIngested())
	}
	if loop.HistoryPairs() != histAfterDay1 {
		t.Fatalf("history = %d, want rolled back to %d", loop.HistoryPairs(), histAfterDay1)
	}
	releaseOnce()
	deadline := time.Now().Add(10 * time.Second)
	for guard.Abandoned() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines not drained: abandoned=%d goroutines=%d (baseline %d)",
				guard.Abandoned(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pipeline.SetFaultHook(nil)

	// The same day retries cleanly on the same loop...
	rep, err := loop.IngestDay(context.Background(), days[1])
	if err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
	if rep.DaysIngested != 2 || loop.DaysIngested() != 2 {
		t.Fatalf("retry converged to %d days, want 2", loop.DaysIngested())
	}

	// ...and a fresh open converges to the same committed state.
	reopened, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.DaysIngested() != 2 {
		t.Fatalf("reopened loop sees %d days, want 2", reopened.DaysIngested())
	}
	if len(reopened.Recovery().Quarantined) != 0 {
		t.Fatalf("clean shutdown left quarantined files: %v", reopened.Recovery().Quarantined)
	}
}

// TestCancelledBeforeStartNoSideEffects: a context cancelled before the
// ingest begins must not touch any state.
func TestCancelledBeforeStartNoSideEffects(t *testing.T) {
	tr := generateTrace(t, 1, nil)
	days := splitDays(tr, 1)
	cfg := Config{StateDir: t.TempDir(), Pipeline: testPipelineConfig(t, tr)}
	loop, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := loop.IngestDay(ctx, days[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if loop.DaysIngested() != 0 || loop.HistoryPairs() != 0 {
		t.Fatalf("cancelled ingest left state: days=%d history=%d",
			loop.DaysIngested(), loop.HistoryPairs())
	}
}

// beaconRecords emits count requests from src to dst every period seconds.
func beaconRecords(src, dst string, count int, period int64) []*proxylog.Record {
	recs := make([]*proxylog.Record, count)
	for i := range recs {
		recs[i] = &proxylog.Record{
			Timestamp: 1700000000 + int64(i)*period,
			ClientIP:  src, Method: "GET", Scheme: "http",
			Host: dst, Path: "/ping", Status: 200,
		}
	}
	return recs
}

// TestCoarsePassRescaleMergeBounded: the coarse pass's rescale-merge runs
// under the pipeline's guard like the detect job does. A pair whose merge
// overruns TaskTimeout is dropped within the failure budget, and the pass
// comes back Degraded with the pair counted.
func TestCoarsePassRescaleMergeBounded(t *testing.T) {
	baseline := runtime.NumGoroutine()
	lm, err := langmodel.Train(corpus.PopularDomains(2000, 42))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{StateDir: t.TempDir(), WeeklyEvery: 1}
	cfg.Pipeline = pipeline.Config{LM: lm, LocalTau: 0.99}
	cfg.Pipeline.Guard.TaskTimeout = 500 * time.Millisecond
	cfg.Pipeline.Guard.FailureBudget = 1
	loop, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The stuck pair's first task call is its daily detection; its second
	// is the weekly pass's rescale-merge, which hangs.
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceTask.Keyed("10.0.0.1|alpha.example"), 2)
	mapreduce.SetFaultHook(sched.Hook())
	t.Cleanup(func() { mapreduce.SetFaultHook(nil); sched.ReleaseHangs() })

	records := append(beaconRecords("10.0.0.1", "alpha.example", 60, 60),
		beaconRecords("10.0.0.2", "bravo.example", 60, 90)...)
	rep, err := loop.IngestDay(context.Background(), records)
	if err != nil {
		t.Fatalf("a pair within the failure budget must not fail the pass: %v", err)
	}
	if rep.Daily.Degraded {
		t.Fatalf("daily run degraded: %+v", rep.Daily.Stats)
	}
	if rep.Weekly == nil {
		t.Fatal("weekly pass never ran")
	}
	if !rep.Weekly.Degraded || rep.Weekly.Stats.FailedPairs != 1 {
		t.Fatalf("weekly degraded=%v failed pairs=%d, want the stuck pair counted",
			rep.Weekly.Degraded, rep.Weekly.Stats.FailedPairs)
	}
	if rep.Weekly.Stats.Pairs != 1 {
		t.Fatalf("weekly pass analyzed %d pairs, want only the healthy one", rep.Weekly.Stats.Pairs)
	}

	sched.ReleaseHangs()
	deadline := time.Now().Add(10 * time.Second)
	for guard.Abandoned() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines not drained: abandoned=%d goroutines=%d (baseline %d)",
				guard.Abandoned(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
