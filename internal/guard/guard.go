// Package guard is the pipeline's resilience layer: it bounds work in
// time and memory so one pathological (source, destination) series —
// millions of events, a degenerate FFT or GMM fit, a wedged I/O call —
// cannot stall a run indefinitely. Config holds the bounds at two scopes:
//
//   - a stage deadline (StageTimeout) cancels one pipeline stage's
//     context and fails the run;
//   - a per-pair deadline (CandidateTimeout) runs one pair's call under
//     RunBounded, which abandons (not kills — goroutines cannot be killed)
//     a call that overruns, so the pair is parked or dropped while the
//     rest of the stage completes;
//   - MaxEventsPerPair caps per-pair input volume and FailureBudget lets
//     the ops loop's rescale-merge drop failed pairs, shedding load with
//     explicit accounting instead of collapsing under it.
//
// The streaming daemon's connector stall timer and query admission are
// internal/source's own; nothing here is specific to them.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrTimeout marks a work unit that exceeded its deadline.
var ErrTimeout = errors.New("guard: deadline exceeded")

// Config bundles the resilience knobs a pipeline run threads through its
// stages. The zero value disables every bound (no deadlines, no caps),
// preserving unguarded behavior.
type Config struct {
	// StageTimeout bounds each pipeline stage (extraction, detection, the
	// rescale-merge) in wall-clock time; exceeding it cancels the
	// stage's context and fails the run with an error wrapping
	// ErrTimeout. 0 disables.
	StageTimeout time.Duration
	// CandidateTimeout bounds one pair's call in wall-clock time: its
	// detection and its indication analysis, where an overrun parks the
	// pair as StageError and the run completes Degraded, and its
	// rescale-merge (pipeline.RescaleAndMerge), where an overrun drops
	// the pair within FailureBudget. 0 disables.
	CandidateTimeout time.Duration
	// MaxEventsPerPair caps the per-pair event count at extraction;
	// pairs over the cap are truncated to their earliest MaxEventsPerPair
	// events with explicit accounting (pipeline Result.Truncated). 0
	// means uncapped.
	MaxEventsPerPair int
	// FailureBudget, when > 0, is the per-pair failure budget of the ops
	// loop's rescale-merge (pipeline.RescaleAndMerge): pairs whose merge
	// fails, panics or times out are dropped and counted while they stay
	// within it, degrading the coarse pass instead of failing it.
	// Detection and indication never charge it; they park the pair.
	FailureBudget int
}

// abandoned counts goroutines left running after their work unit timed
// out or was cancelled. They drain on their own when the underlying call
// returns; tests assert the counter returns to zero.
var abandoned atomic.Int64

// Abandoned reports the number of work-unit goroutines currently running
// past their deadline (diagnostics; tests assert it drains to zero).
func Abandoned() int64 { return abandoned.Load() }

// RunBounded executes fn bounded by the timeout and by ctx. With no
// timeout (timeout <= 0) fn runs inline on the caller's goroutine, and
// ctx is the caller's to check between calls. Otherwise fn runs on its
// own goroutine; if it overruns, RunBounded returns a zero T with an
// error wrapping ErrTimeout (timer) or the context's cancellation cause,
// and the goroutine is abandoned to drain on its own — fn must therefore
// communicate only through its return values, never by writing shared
// state.
func RunBounded[T any](ctx context.Context, timeout time.Duration, fn func() (T, error)) (T, error) {
	if timeout <= 0 {
		return fn()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned fn's send never blocks
	go func() {
		v, err := fn()
		ch <- outcome{v: v, err: err}
	}()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	// abandon marks the work unit abandoned and installs a drainer that
	// clears the mark when the underlying call eventually returns.
	abandon := func() {
		abandoned.Add(1)
		go func() {
			<-ch
			abandoned.Add(-1)
		}()
	}
	var zero T
	select {
	case out := <-ch:
		return out.v, out.err
	case <-timer.C:
		abandon()
		return zero, fmt.Errorf("%w after %v", ErrTimeout, timeout)
	case <-ctx.Done():
		abandon()
		return zero, cause(ctx)
	}
}

// cause returns the context's cancellation cause, falling back to its
// plain error.
func cause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}
