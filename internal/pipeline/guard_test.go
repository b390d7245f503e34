package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/faultinject"
	"baywatch/internal/guard"
	"baywatch/internal/langmodel"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
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
	runHungCandidate(t, faultinject.PointPipelineDetect, "detect")
}

// TestCandidateTimeoutParksHungIndication: the per-pair deadline bounds
// the indication analysis as it bounds detection — the hung pair is
// parked under stage "indication", every other candidate completes, and
// the abandoned analysis drains once the hang is released.
func TestCandidateTimeoutParksHungIndication(t *testing.T) {
	runHungCandidate(t, faultinject.PointPipelineIndication, "indication")
}

// runHungCandidate wedges one pair's call at point forever under a
// one-second CandidateTimeout and checks that the run parks exactly that
// pair as StageError in stage, carrying guard.ErrTimeout.
func runHungCandidate(t *testing.T, point faultinject.Point, stage string) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	var records []*proxylog.Record
	records = append(records, beaconRecords("10.0.0.1", "alpha.example", 60, 60)...)
	records = append(records, beaconRecords("10.0.0.2", "bravo.example", 60, 90)...)
	records = append(records, beaconRecords("10.0.0.3", "stuck.example", 60, 120)...)
	records = append(records, beaconRecords("10.0.0.4", "delta.example", 60, 45)...)

	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce) // even a failing test must unblock the hang
	t.Cleanup(faultinject.Install(func(p string) error {
		if p == string(point.Keyed("10.0.0.3|stuck.example")) {
			<-release // wedge this one pair's call forever
		}
		return nil
	}))

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
	if ce.Stage != stage || ce.Destination != "stuck.example" {
		t.Fatalf("error record %+v, want %s on stuck.example", ce, stage)
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
	if guard.Abandoned() == 0 {
		t.Fatal("the hung call should still be running, abandoned")
	}
	releaseOnce()
	drainGuard(t, baseline)
}

func TestStageTimeoutFailsRun(t *testing.T) {
	env := newTestEnv(t, nil)
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			time.Sleep(120 * time.Millisecond) // every pair is slow
		}
		return nil
	}))

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
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			hang := false
			once.Do(func() { hang = true })
			if hang {
				close(engaged)
				<-release
			}
		}
		return nil
	}))

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

// rescaleInput is two days of summaries for each of the sources a, b, c
// and e towards d, interleaved by day.
func rescaleInput(t *testing.T) []*timeseries.ActivitySummary {
	t.Helper()
	var sums []*timeseries.ActivitySummary
	for day := int64(0); day < 2; day++ {
		for _, src := range []string{"a", "b", "c", "e"} {
			as, err := timeseries.FromTimestamps(src, "d", []int64{day * 86400, day*86400 + 60}, 1)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, as)
		}
	}
	return sums
}

// TestRescaleAndMergeFailureBudget: a pair whose rescale-merge fails or
// panics is dropped and counted within FailureBudget while the other
// pairs merge; past the budget the step fails naming the first pair over
// it. Each case runs inline (no CandidateTimeout) and on the bounded,
// abandonable path.
func TestRescaleAndMergeFailureBudget(t *testing.T) {
	injected := errors.New("injected rescale failure")
	at := func(src string) faultinject.Point { return faultinject.PointPipelineRescale.Keyed(src + "|d") }
	cases := []struct {
		name    string
		budget  int
		arm     func(s *faultinject.Scheduler)
		empty   bool
		want    []string // sources merged, in order
		failed  int64
		wantErr string // substring naming the failing pair and its cause; "" = success
	}{
		{name: "clean", want: []string{"a", "b", "c", "e"}},
		{name: "empty input", empty: true, want: []string{}},
		{name: "error within budget", budget: 1, arm: func(s *faultinject.Scheduler) { s.FailAt(at("b"), 1, injected) },
			want: []string{"a", "c", "e"}, failed: 1},
		{name: "panic within budget", budget: 1, arm: func(s *faultinject.Scheduler) { s.CrashAt(at("c"), 1) },
			want: []string{"a", "b", "e"}, failed: 1},
		{name: "one past budget", budget: 1, arm: func(s *faultinject.Scheduler) {
			s.FailAt(at("b"), 1, injected)
			s.FailAt(at("e"), 1, injected)
		}, wantErr: `pair "e|d": injected rescale failure`},
		{name: "zero budget aborts on first", arm: func(s *faultinject.Scheduler) { s.FailAt(at("c"), 1, injected) },
			wantErr: `pair "c|d": injected rescale failure`},
		{name: "panic past budget", arm: func(s *faultinject.Scheduler) { s.CrashAt(at("a"), 1) },
			wantErr: `pair "a|d": rescale-merge panic`},
	}
	for _, tc := range cases {
		for _, timeout := range []time.Duration{0, time.Hour} {
			t.Run(fmt.Sprintf("%s/timeout=%v", tc.name, timeout), func(t *testing.T) {
				sched := faultinject.New(0)
				if tc.arm != nil {
					tc.arm(sched)
				}
				t.Cleanup(faultinject.Install(sched.Hook()))

				var sums []*timeseries.ActivitySummary
				if !tc.empty {
					sums = rescaleInput(t)
				}
				g := guard.Config{CandidateTimeout: timeout, FailureBudget: tc.budget}
				merged, failed, err := RescaleAndMerge(context.Background(), sums, 60, g)
				if tc.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
						t.Fatalf("err = %v, want the step failed naming %s", err, tc.wantErr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				if failed != tc.failed {
					t.Errorf("failed = %d, want %d", failed, tc.failed)
				}
				got := []string{}
				for _, m := range merged {
					if m.EventCount() != 4 || m.Scale != 60 {
						t.Errorf("%s|%s: %d events at scale %d, want both days' 4 at 60", m.Source, m.Destination, m.EventCount(), m.Scale)
					}
					got = append(got, m.Source)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("merged sources %v, want %v", got, tc.want)
				}
			})
		}
	}
	if n := guard.Abandoned(); n != 0 {
		t.Fatalf("Abandoned() = %d after every call returned", n)
	}
}

// TestRescaleAndMergeCancelledMidStep: cancelling the context while a
// pair's call hangs returns promptly with the cancellation cause, and the
// abandoned call drains once released.
func TestRescaleAndMergeCancelledMidStep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointPipelineRescale.Keyed("a|d"), 1)
	restore := faultinject.Install(sched.Hook())
	t.Cleanup(func() { restore(); sched.ReleaseHangs() })

	// A long per-pair deadline routes the call through the abandonable
	// bounded path without ever firing itself; promptness must come from
	// cancellation alone.
	g := guard.Config{CandidateTimeout: time.Hour, FailureBudget: 4}
	cause := errors.New("cancelled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	sums := rescaleInput(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := RescaleAndMerge(ctx, sums, 60, g)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sched.ActiveHangs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hang never engaged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel(cause)
	select {
	case err := <-done:
		if !errors.Is(err, cause) {
			t.Fatalf("err = %v, want the cancellation cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RescaleAndMerge did not return after cancellation")
	}
	sched.ReleaseHangs()
	drainGuard(t, baseline)
}
