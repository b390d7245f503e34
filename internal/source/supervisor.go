package source

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// errStalled is the cause a connector run is cancelled with when it goes
// StallTimeout without a delivery or an Alive call.
var errStalled = errors.New("source: connector stalled")

// supervisor wraps one connector in the daemon's resilience policy:
//
//   - restart on failure with capped-exponential backoff and
//     deterministic jitter (a thundering herd of identical sources
//     still spreads out, and tests replay the exact delays);
//   - stall detection: the connector's sink stamps a heartbeat on every
//     delivery and idle poll, a timer armed per run checks it, and a
//     connector silent for StallTimeout has its current run cancelled
//     (errStalled) and restarted;
//   - a per-source circuit breaker: after BreakerThreshold consecutive
//     failed runs the source is marked unhealthy — its pairs read as
//     stale in tick results — and retries slow to BreakerCooldown until
//     one delivery succeeds again.
//
// A failing source therefore degrades that source only; the daemon, the
// other sources and the query endpoint keep running.
type supervisor struct {
	d    *Daemon
	c    Connector
	name string

	lastBeat atomic.Int64 // UnixNano of the latest delivery or Alive

	mu       sync.Mutex
	failures int  // consecutive failed runs
	open     bool // circuit breaker state
	// unreported is set by a delivery and cleared by the next caught-up
	// report, which it turns into an on-demand tick request.
	unreported bool
	restarts   int64
}

func newSupervisor(d *Daemon, c Connector) *supervisor {
	return &supervisor{d: d, c: c, name: c.Name()}
}

// beat records liveness for the stall timer; without StallTimeout there
// is no timer and nothing to record.
func (s *supervisor) beat() {
	if s.d.cfg.StallTimeout > 0 {
		s.lastBeat.Store(time.Now().UnixNano())
	}
}

// armStall starts one run's stall timer and returns its stop function.
// When the timer fires it re-arms for the rest of the window if a beat
// came since, and otherwise cancels the run with errStalled. mu orders the
// timer's creation before its first firing and keeps a stopped timer from
// re-arming.
func (s *supervisor) armStall(cancel context.CancelCauseFunc) (stop func()) {
	stall := s.d.cfg.StallTimeout
	if stall <= 0 {
		return func() {}
	}
	s.beat()
	var (
		mu      sync.Mutex
		t       *time.Timer
		stopped bool
	)
	mu.Lock()
	defer mu.Unlock()
	t = time.AfterFunc(stall, func() {
		idle := time.Since(time.Unix(0, s.lastBeat.Load()))
		if idle >= stall {
			cancel(errStalled)
			return
		}
		mu.Lock()
		if !stopped {
			t.Reset(stall - idle)
		}
		mu.Unlock()
	})
	return func() {
		mu.Lock()
		stopped = true
		t.Stop()
		mu.Unlock()
	}
}

// noteDelivery records forward progress: failures reset and an open
// breaker closes (the source is healthy again).
func (s *supervisor) noteDelivery() {
	s.mu.Lock()
	s.unreported = true
	s.failures = 0
	wasOpen := s.open
	s.open = false
	s.mu.Unlock()
	if wasOpen {
		s.d.eng.SetSourceHealth(s.name, true)
		s.d.logf("source %s recovered; circuit closed", s.name)
	}
}

// noteCaughtUp turns the connector's caught-up report into a tick request
// for Run's loop when the source delivered since its last report; an idle
// source's reports ask for nothing.
func (s *supervisor) noteCaughtUp() {
	s.mu.Lock()
	delivered := s.unreported
	s.unreported = false
	s.mu.Unlock()
	if delivered {
		select {
		case s.d.caughtUp <- struct{}{}:
		default: // a request is already pending
		}
	}
}

// noteFailure books one failed run and returns the delay before the next
// attempt.
func (s *supervisor) noteFailure(err error) time.Duration {
	s.mu.Lock()
	s.failures++
	failures := s.failures
	justOpened := false
	if !s.open && failures >= s.d.cfg.BreakerThreshold {
		s.open = true
		justOpened = true
	}
	open := s.open
	s.restarts++
	s.mu.Unlock()
	if justOpened {
		s.d.eng.SetSourceHealth(s.name, false)
		s.d.logf("source %s: circuit open after %d consecutive failures (pairs marked stale)", s.name, failures)
	}
	s.d.logf("source %s failed: %v (retry %d)", s.name, err, failures)
	if open {
		return s.d.cfg.BreakerCooldown
	}
	return retryDelay(s.name, failures, s.d.cfg.RetryBase, s.d.cfg.RetryMax)
}

// supervise runs the connector until ctx ends, restarting it per the
// policy above. Each run gets its own stall timer and resumes the
// connector from the engine's current position.
func (s *supervisor) supervise(ctx context.Context) {
	for ctx.Err() == nil {
		runCtx, cancel := context.WithCancelCause(ctx)
		stopStall := s.armStall(cancel)
		err := s.c.Run(runCtx, s.d.eng.Position(s.name), superSink{s})
		stopStall()
		cancel(nil)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			err = fmt.Errorf("source: connector %s returned without cause", s.name)
		}
		delay := s.noteFailure(err)
		if sleepCtx(ctx, delay) != nil {
			return
		}
	}
}

// status summarizes the supervisor for the query endpoint.
func (s *supervisor) status() SourceStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SourceStatus{
		Name:     s.name,
		Healthy:  !s.open,
		Failures: s.failures,
		Restarts: s.restarts,
	}
}

// superSink is the sink the supervisor hands its connector: it beats the
// stall timer, applies batches to the engine, books progress, requests
// record-count commits, and passes caught-up reports on as tick requests.
type superSink struct{ s *supervisor }

// Deliver implements Sink.
func (ss superSink) Deliver(b Batch) error {
	ss.s.beat()
	ss.s.d.eng.Apply(b)
	ss.s.noteDelivery()
	ss.s.d.maybeCommit()
	return nil
}

// Alive implements Sink.
func (ss superSink) Alive() {
	ss.s.beat()
	ss.s.noteCaughtUp()
}

// retryDelay is the capped-exponential backoff with deterministic jitter:
// base doubling per attempt up to max, then jittered into [d/2, d) by an
// fnv hash of (name, attempt) — spread without randomness, replayable in
// tests.
func retryDelay(name string, attempt int, base, max time.Duration) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 15 * time.Second
	}
	d := doubling(base, max, attempt)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", name, attempt)
	frac := float64(h.Sum64()%1024) / 1024
	return d/2 + time.Duration(frac*float64(d/2))
}
