package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/faultinject"
	"baywatch/internal/guard"
	"baywatch/internal/langmodel"
	"baywatch/internal/mapreduce"
	"baywatch/internal/proxylog"
)

// drainGuard waits for abandoned work-unit goroutines to finish after the
// test releases whatever was blocking them.
func drainGuard(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for guard.Abandoned() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines not drained: abandoned=%d goroutines=%d (baseline %d)",
				guard.Abandoned(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
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

// smallConfig is a minimal pipeline config over hand-built records (no
// synthetic trace), so overload tests control event volumes exactly.
func smallConfig(t *testing.T) Config {
	t.Helper()
	lm, err := langmodel.Train(corpus.PopularDomains(2000, 42))
	if err != nil {
		t.Fatal(err)
	}
	return Config{LM: lm, LocalTau: 0.99}
}

func TestOverloadTruncatesPairAndProcessesRest(t *testing.T) {
	var records []*proxylog.Record
	// Three ordinary pairs and one pair with 100x their event volume.
	records = append(records, beaconRecords("10.0.0.1", "alpha.example", 60, 60)...)
	records = append(records, beaconRecords("10.0.0.2", "bravo.example", 60, 90)...)
	records = append(records, beaconRecords("10.0.0.3", "charlie.example", 60, 120)...)
	records = append(records, beaconRecords("10.0.0.4", "heavy.example", 6000, 1)...)

	cfg := smallConfig(t)
	cfg.Guard.MaxEventsPerPair = 1000

	res, err := Run(context.Background(), records, nil, cfg)
	if err != nil {
		t.Fatalf("overloaded run failed: %v", err)
	}
	if !res.Degraded {
		t.Fatal("truncated run must be Degraded")
	}
	if len(res.Truncated) != 1 {
		t.Fatalf("Truncated = %+v, want exactly the heavy pair", res.Truncated)
	}
	tp := res.Truncated[0]
	if tp.Destination != "heavy.example" || tp.Kept != 1000 || tp.Dropped != 5000 {
		t.Fatalf("truncation record = %+v, want heavy.example kept=1000 dropped=5000", tp)
	}
	if res.Stats.TruncatedPairs != 1 || res.Stats.DroppedEvents != 5000 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	// Every pair — including the capped one — still flowed through.
	if res.Stats.Pairs != 4 {
		t.Fatalf("Pairs = %d, want 4", res.Stats.Pairs)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("truncation must not error candidates: %+v", res.Errors)
	}
}

func TestUncappedRunNotTruncated(t *testing.T) {
	records := beaconRecords("10.0.0.1", "alpha.example", 200, 60)
	cfg := smallConfig(t)
	res, err := Run(context.Background(), records, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Truncated) != 0 {
		t.Fatalf("uncapped run degraded: %+v", res.Truncated)
	}
}

func TestCandidateTimeoutParksHungDetection(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var records []*proxylog.Record
	records = append(records, beaconRecords("10.0.0.1", "alpha.example", 60, 60)...)
	records = append(records, beaconRecords("10.0.0.2", "bravo.example", 60, 90)...)
	records = append(records, beaconRecords("10.0.0.3", "stuck.example", 60, 120)...)
	records = append(records, beaconRecords("10.0.0.4", "delta.example", 60, 45)...)

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // even a failing test must unblock the hang
	SetFaultHook(func(point string) error {
		if point == string(faultinject.PointPipelineDetect.Keyed("10.0.0.3|stuck.example")) {
			<-release // wedge this one pair's detection forever
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })

	cfg := smallConfig(t)
	cfg.Guard.CandidateTimeout = time.Second

	start := time.Now()
	res, err := Run(context.Background(), records, nil, cfg)
	if err != nil {
		t.Fatalf("run should park the hung candidate, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("run not bounded: %v", elapsed)
	}
	if !res.Degraded || len(res.Errors) != 1 {
		t.Fatalf("degraded=%v errors=%d, want true/1", res.Degraded, len(res.Errors))
	}
	ce := res.Errors[0]
	if ce.Stage != "detect" || ce.Destination != "stuck.example" {
		t.Fatalf("error record %+v, want detect on stuck.example", ce)
	}
	if !strings.Contains(ce.Err, guard.ErrTimeout.Error()) {
		t.Fatalf("error should carry the deadline cause: %q", ce.Err)
	}
	// All other candidates were fully processed.
	if len(res.Candidates) != 4 {
		t.Fatalf("candidates = %d, want all 4 pairs", len(res.Candidates))
	}
	for _, c := range res.Candidates {
		if c.Destination != "stuck.example" && c.SuppressedBy == StageError {
			t.Fatalf("healthy pair %s|%s errored", c.Source, c.Destination)
		}
	}
	releaseOnce()
	drainGuard(t, baseline)
}

func TestWatchdogDetectsMapreduceHangDegraded(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var records []*proxylog.Record
	records = append(records, beaconRecords("10.0.0.1", "alpha.example", 60, 60)...)
	records = append(records, beaconRecords("10.0.0.2", "bravo.example", 60, 90)...)
	records = append(records, beaconRecords("10.0.0.3", "charlie.example", 60, 120)...)

	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceTask.Keyed("10.0.0.3|charlie.example"), 1)
	mapreduce.SetFaultHook(sched.Hook())
	t.Cleanup(func() { mapreduce.SetFaultHook(nil); sched.ReleaseHangs() })

	cfg := smallConfig(t)
	// The stall bound must exceed any healthy pair's detection (heartbeats
	// only happen between pairs) while still catching the infinite
	// injected hang; these detections run in milliseconds.
	cfg.Guard.StallTimeout = 500 * time.Millisecond
	cfg.Guard.PollInterval = 20 * time.Millisecond
	cfg.Guard.FailureBudget = 2

	start := time.Now()
	res, err := Run(context.Background(), records, nil, cfg)
	if err != nil {
		t.Fatalf("watchdog should degrade, not fail, the run: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Second {
		t.Fatalf("hung run not bounded: %v", elapsed)
	}
	if !res.Degraded {
		t.Fatal("run with a stalled task must be Degraded")
	}
	if res.Stats.FailedPairs != 1 {
		t.Fatalf("FailedPairs = %d, want 1", res.Stats.FailedPairs)
	}
	if res.Stats.Stalls < 1 {
		t.Fatalf("Stalls = %d, want >= 1", res.Stats.Stalls)
	}
	sched.ReleaseHangs()
	drainGuard(t, baseline)
}

func TestStageTimeoutFailsRun(t *testing.T) {
	env := newTestEnv(t, nil)
	SetFaultHook(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			time.Sleep(120 * time.Millisecond) // every pair is slow
		}
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })

	cfg := env.cfg
	cfg.Guard.StageTimeout = 100 * time.Millisecond

	_, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err == nil {
		t.Fatal("stage overrun must fail the run")
	}
	if !errors.Is(err, guard.ErrTimeout) {
		t.Fatalf("err = %v, want guard.ErrTimeout cause", err)
	}
}

func TestRunCancellationPromptAndNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := newTestEnv(t, nil)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	engaged := make(chan struct{})
	var once sync.Once
	SetFaultHook(func(point string) error {
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
	t.Cleanup(func() { SetFaultHook(nil) })

	cfg := env.cfg
	// A long candidate deadline routes detection through the abandonable
	// bounded path without ever firing itself; promptness must come from
	// cancellation alone.
	cfg.Guard.CandidateTimeout = time.Hour

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, env.trace.Records, env.corr, cfg)
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
		t.Fatal("Run did not return promptly after cancellation")
	}
	releaseOnce()
	drainGuard(t, baseline)
}
