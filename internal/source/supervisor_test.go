package source

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestRetryDelayDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, 15*time.Second
	for attempt := 1; attempt <= 20; attempt++ {
		d := retryDelay("proxy", attempt, base, max)
		if d2 := retryDelay("proxy", attempt, base, max); d2 != d {
			t.Fatalf("attempt %d: delay not deterministic (%v vs %v)", attempt, d, d2)
		}
		if d < base/2 || d >= max {
			t.Fatalf("attempt %d: delay %v outside [base/2, max)", attempt, d)
		}
	}
	// Deep attempts saturate at the cap's jitter window, not beyond it.
	if d := retryDelay("proxy", 1000, base, max); d < max/2 || d >= max {
		t.Fatalf("saturated delay %v outside [max/2, max)", d)
	}
	// Zero config falls back to the documented defaults.
	if d := retryDelay("proxy", 1, 0, 0); d < 50*time.Millisecond || d >= 100*time.Millisecond {
		t.Fatalf("default first delay %v outside [50ms, 100ms)", d)
	}
}

// flappyConn scripts a source that delivers once, fails hard enough to
// open its circuit, then recovers when the test opens the gate.
type flappyConn struct {
	mu        sync.Mutex
	runs      int
	gate      chan struct{}
	recovered chan struct{}
	once      sync.Once
}

func (f *flappyConn) Name() string { return "flappy" }

func (f *flappyConn) Run(ctx context.Context, resume Position, sink Sink) error {
	f.mu.Lock()
	f.runs++
	run := f.runs
	f.mu.Unlock()
	switch {
	case run == 1:
		// One healthy delivery creates the pair the staleness marking acts on.
		sink.Deliver(Batch{Source: "flappy",
			Events: []Event{{Source: "h", Destination: "d.example", TS: 100}},
			Pos:    Position{Records: resume.Records + 1}})
		return errors.New("flap")
	case run <= 4:
		return errors.New("flap")
	default:
		select {
		case <-f.gate:
		case <-ctx.Done():
			return ctxCause(ctx)
		}
		sink.Deliver(Batch{Source: "flappy",
			Events: []Event{{Source: "h", Destination: "d.example", TS: 200}},
			Pos:    Position{Records: resume.Records + 1}})
		f.once.Do(func() { close(f.recovered) })
		<-ctx.Done()
		return ctxCause(ctx)
	}
}

// TestBreakerOpensMarksStaleAndRecovers: three consecutive failures open
// the circuit — the source's pairs read stale, the daemon keeps running —
// and one successful delivery closes it again.
func TestBreakerOpensMarksStaleAndRecovers(t *testing.T) {
	conn := &flappyConn{gate: make(chan struct{}), recovered: make(chan struct{})}
	d, err := NewDaemon(DaemonConfig{
		Engine:           Config{StateDir: t.TempDir()},
		Connectors:       []Connector{conn},
		TickInterval:     time.Hour,
		BreakerThreshold: 3,
		RetryBase:        time.Millisecond,
		RetryMax:         2 * time.Millisecond,
		BreakerCooldown:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled below and awaited on done
	go func() { done <- d.Run(ctx) }()

	waitStale := func(want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			tl := d.Engine().HostTimeline("h")
			if len(tl) == 1 && tl[0].Stale == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("pair never reached stale=%v", want)
	}
	waitStale(true) // circuit opened after the consecutive failures
	if !d.Degraded() {
		t.Error("daemon not degraded with an open circuit")
	}
	close(conn.gate)
	<-conn.recovered
	waitStale(false) // one delivery closed the circuit
	if d.Degraded() {
		t.Error("daemon still degraded after the source recovered")
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
	st := d.sups[0].status()
	if st.Restarts < 4 || !st.Healthy {
		t.Fatalf("final status = %+v, want healthy with >=4 restarts", st)
	}
}

// wedgedConn never delivers and never reports liveness: the shape of a
// connector stuck in a syscall the watchdog exists to catch.
type wedgedConn struct{ causes chan error }

func (w *wedgedConn) Name() string { return "wedged" }

func (w *wedgedConn) Run(ctx context.Context, resume Position, sink Sink) error {
	<-ctx.Done()
	err := ctxCause(ctx)
	select {
	case w.causes <- err:
	default:
	}
	return err
}

// TestWatchdogStallCancelsSilentConnector: a connector that goes silent
// past StallTimeout has its run cancelled with errStalled and is
// restarted; the daemon itself stays up.
func TestWatchdogStallCancelsSilentConnector(t *testing.T) {
	conn := &wedgedConn{causes: make(chan error, 1)}
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir()},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		StallTimeout: 50 * time.Millisecond,
		RetryBase:    time.Millisecond,
		RetryMax:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled below and awaited on done
	go func() { done <- d.Run(ctx) }()

	select {
	case cause := <-conn.causes:
		if !errors.Is(cause, errStalled) {
			t.Fatalf("stalled run cancelled with %v, want errStalled", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never cancelled the silent connector")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon run: %v", err)
	}
}

// stallingConn calls Alive beats times, gap apart, then goes silent until
// its run is cancelled, and reports each run on runs.
type stallingConn struct {
	beats int
	gap   time.Duration
	runs  chan stallRun
}

// stallRun is one stallingConn run: the Alive calls it made, the cause
// its run was cancelled with, and how long it had been silent by then.
type stallRun struct {
	beats  int
	cause  error
	silent time.Duration
}

func (c *stallingConn) Name() string { return "stalling" }

func (c *stallingConn) Run(ctx context.Context, resume Position, sink Sink) error {
	run := stallRun{}
	last := time.Now()
	for ; run.beats < c.beats; run.beats++ {
		if sleepCtx(ctx, c.gap) != nil {
			break
		}
		last = time.Now() // before Alive, so silent never reads short
		sink.Alive()
	}
	<-ctx.Done()
	run.cause, run.silent = ctxCause(ctx), time.Since(last)
	select {
	case c.runs <- run:
	default:
	}
	return run.cause
}

// runStallDaemon runs a daemon over conn with the given StallTimeout and
// returns a stop function that cancels it and waits for Run to return.
func runStallDaemon(t *testing.T, conn Connector, stall time.Duration) (stop func()) {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir()},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		StallTimeout: stall,
		RetryBase:    time.Millisecond,
		RetryMax:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled and awaited by stop
	go func() { done <- d.Run(ctx) }()
	return func() {
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("daemon run: %v", err)
		}
	}
}

// nextRun waits for conn's next reported run.
func nextRun(t *testing.T, conn *stallingConn) stallRun {
	t.Helper()
	select {
	case run := <-conn.runs:
		return run
	case <-time.After(10 * time.Second):
		t.Fatal("the stall timer never cancelled the connector's run")
		return stallRun{}
	}
}

// TestStallTimerAliveKeepsConnector: a connector that calls Alive every
// StallTimeout/5 for ten StallTimeouts is never cancelled while it does;
// the timer fires only once it goes silent.
func TestStallTimerAliveKeepsConnector(t *testing.T) {
	const stall = 100 * time.Millisecond
	conn := &stallingConn{beats: 50, gap: stall / 5, runs: make(chan stallRun, 1)}
	stop := runStallDaemon(t, conn, stall)
	defer stop()
	run := nextRun(t, conn)
	if run.beats != conn.beats {
		t.Fatalf("run cancelled (%v) after %d of %d Alive calls", run.cause, run.beats, conn.beats)
	}
	if !errors.Is(run.cause, errStalled) || run.silent < stall {
		t.Fatalf("silent run ended with %v after %v, want errStalled after >= %v", run.cause, run.silent, stall)
	}
}

// TestStallTimerRearmsPerRun: a connector that beats, stalls, is restarted
// and stalls again is cancelled with errStalled both times, each no
// sooner than StallTimeout after its last beat.
func TestStallTimerRearmsPerRun(t *testing.T) {
	const stall = 50 * time.Millisecond
	conn := &stallingConn{beats: 3, gap: stall / 5, runs: make(chan stallRun, 2)}
	stop := runStallDaemon(t, conn, stall)
	defer stop()
	for i := 1; i <= 2; i++ {
		run := nextRun(t, conn)
		if !errors.Is(run.cause, errStalled) {
			t.Fatalf("run %d cancelled with %v, want errStalled", i, run.cause)
		}
		if run.beats != conn.beats || run.silent < stall {
			t.Fatalf("run %d cancelled after %d Alive calls and %v of silence, want %d and >= %v",
				i, run.beats, run.silent, conn.beats, stall)
		}
	}
}

// TestStallTimerLeavesNoGoroutine: once Daemon.Run returns, neither the
// supervisors nor their runs' stall timers leave a goroutine behind.
func TestStallTimerLeavesNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const stall = 20 * time.Millisecond
	conn := &stallingConn{beats: 1, gap: stall / 5, runs: make(chan stallRun, 2)}
	stop := runStallDaemon(t, conn, stall)
	nextRun(t, conn)
	nextRun(t, conn)
	stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
