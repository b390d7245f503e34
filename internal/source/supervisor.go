package source

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/guard"
)

// supervisor wraps one connector in the daemon's resilience policy:
//
//   - restart on failure with capped-exponential backoff and
//     deterministic jitter (a thundering herd of identical sources
//     still spreads out, and tests replay the exact delays);
//   - watchdog stall detection: the connector's sink beats a
//     guard.Watchdog heartbeat on every delivery and idle poll, and a
//     silent connector has its current run cancelled (guard.ErrStalled)
//     and restarted;
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

	hb        *guard.Heartbeat
	cancelCur atomic.Value // of context.CancelCauseFunc

	mu       sync.Mutex
	failures int  // consecutive failed runs
	open     bool // circuit breaker state
	progress bool // a delivery happened during the current run
	restarts int64
}

func newSupervisor(d *Daemon, c Connector) *supervisor {
	return &supervisor{d: d, c: c, name: c.Name()}
}

// stallCancel is the watchdog's intervention: cancel the connector's
// current run with ErrStalled; the supervise loop restarts it.
func (s *supervisor) stallCancel() {
	if c, ok := s.cancelCur.Load().(context.CancelCauseFunc); ok && c != nil {
		c(guard.ErrStalled)
	}
}

// noteDelivery records forward progress: failures reset and an open
// breaker closes (the source is healthy again).
func (s *supervisor) noteDelivery() {
	s.mu.Lock()
	s.progress = true
	s.failures = 0
	wasOpen := s.open
	s.open = false
	s.mu.Unlock()
	if wasOpen {
		s.d.eng.SetSourceHealth(s.name, true)
		s.d.logf("source %s recovered; circuit closed", s.name)
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
// policy above. It registers its watchdog worker on entry and always
// resumes the connector from the engine's current position.
func (s *supervisor) supervise(ctx context.Context) {
	if s.d.wd != nil {
		s.hb = s.d.wd.Register("source:"+s.name, s.stallCancel)
		defer s.hb.Done()
	}
	for ctx.Err() == nil {
		runCtx, cancel := context.WithCancelCause(ctx)
		s.cancelCur.Store(context.CancelCauseFunc(cancel))
		s.mu.Lock()
		s.progress = false
		s.mu.Unlock()
		err := s.c.Run(runCtx, s.d.eng.Position(s.name), superSink{s})
		s.cancelCur.Store(context.CancelCauseFunc(nil))
		cancel(nil)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			err = fmt.Errorf("source: connector %s returned without cause", s.name)
		}
		delay := s.noteFailure(err)
		if s.hb != nil {
			// Backoff is intentional idleness, not a stall.
			s.hb.Beat()
		}
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
// watchdog, applies batches to the engine, books progress, and requests
// record-count commits.
type superSink struct{ s *supervisor }

// Deliver implements Sink.
func (ss superSink) Deliver(b Batch) error {
	if ss.s.hb != nil {
		ss.s.hb.Beat()
	}
	ss.s.d.eng.Apply(b)
	ss.s.noteDelivery()
	ss.s.d.maybeCommit()
	return nil
}

// Alive implements Sink.
func (ss superSink) Alive() {
	if ss.s.hb != nil {
		ss.s.hb.Beat()
	}
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
