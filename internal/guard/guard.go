// Package guard is the pipeline's resilience layer: it bounds every unit
// of work in time and memory so one pathological (source, destination)
// series — millions of events, a degenerate FFT or GMM fit, a wedged I/O
// call — cannot stall a daily run indefinitely. Three mechanisms compose:
//
//   - deadlines: RunBounded executes a work unit with a hard timeout and
//     full context-cancellation propagation, abandoning (not killing —
//     goroutines cannot be killed) work that overruns;
//   - a watchdog: workers publish progress heartbeats, and a monitor
//     cancels the current task of any worker that stops beating;
//   - admission control: Semaphore bounds in-flight work units and
//     Config.MaxEventsPerPair caps per-pair input volume, shedding load
//     with explicit accounting instead of collapsing under it.
//
// The mapreduce engine and the pipeline consume these primitives through
// Config; timed-out or stalled candidates are parked as StageError via
// the degraded-mode machinery rather than wedging the run.
package guard

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrTimeout marks a work unit that exceeded its deadline.
var ErrTimeout = errors.New("guard: deadline exceeded")

// ErrStalled marks a work unit cancelled by the watchdog after its worker
// stopped publishing progress heartbeats.
var ErrStalled = errors.New("guard: worker stalled")

// ErrShed marks a work unit rejected by admission control.
var ErrShed = errors.New("guard: admission budget exhausted")

// Config bundles the resilience knobs a pipeline run threads through its
// stages. The zero value disables every bound (no deadlines, no watchdog,
// no caps), preserving unguarded behavior.
type Config struct {
	// StageTimeout bounds each pipeline stage (one MapReduce job) in
	// wall-clock time; exceeding it cancels the stage's context and fails
	// the run with an error wrapping ErrTimeout. 0 disables.
	StageTimeout time.Duration
	// CandidateTimeout bounds the per-candidate detection and indication
	// analysis; a candidate that overruns is parked as StageError and the
	// run completes Degraded. 0 disables.
	CandidateTimeout time.Duration
	// TaskTimeout bounds each MapReduce job's call on one pair
	// (mapreduce.JobConfig.TaskTimeout). 0 disables.
	TaskTimeout time.Duration
	// StallTimeout enables the watchdog: a worker that publishes no
	// progress heartbeat for this long has its current task cancelled
	// (surfacing ErrStalled). 0 disables the watchdog.
	StallTimeout time.Duration
	// PollInterval is the watchdog scan cadence; defaults to
	// StallTimeout/4.
	PollInterval time.Duration
	// MaxInFlight bounds the number of candidates admitted to detection
	// concurrently (the in-flight candidate budget). 0 means unlimited.
	MaxInFlight int
	// MaxEventsPerPair caps the per-pair event count at extraction;
	// pairs over the cap are truncated to their earliest MaxEventsPerPair
	// events with explicit accounting (pipeline Result.Truncated). 0
	// means uncapped.
	MaxEventsPerPair int
	// FailureBudget, when > 0, is the MapReduce jobs' per-pair failure
	// budget (mapreduce.JobConfig.MaxFailed), so timed-out or stalled
	// pairs degrade the run instead of failing it.
	FailureBudget int
}

// Enabled reports whether any bound is configured.
func (c Config) Enabled() bool {
	return c != Config{}
}

// faultHook, when non-nil, is consulted at guard events (watchdog stalls)
// so tests can observe them deterministically through the same seam the
// rest of the fault-injection harness uses. Production runs leave it nil.
var faultHook atomic.Pointer[func(point string) error]

// SetFaultHook installs (or, with nil, removes) the fault observation
// hook. Testing only.
func SetFaultHook(hook func(point string) error) {
	if hook == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&hook)
}

func faultCheck(point faultinject.Point) error {
	h := faultHook.Load()
	if h == nil {
		return nil
	}
	return (*h)(string(point))
}

// abandoned counts goroutines left running after their work unit timed
// out or was cancelled. They drain on their own when the underlying call
// returns; tests assert the counter returns to zero.
var abandoned atomic.Int64

// Abandoned reports the number of work-unit goroutines currently running
// past their deadline (diagnostics; tests assert it drains to zero).
func Abandoned() int64 { return abandoned.Load() }

// RunBounded executes fn bounded by the timeout and by ctx. When both
// bounds are absent (timeout <= 0 and ctx cannot be cancelled) fn runs
// inline. Otherwise fn runs on its own goroutine; if it overruns,
// RunBounded returns a zero T with an error wrapping ErrTimeout (timer)
// or the context's cancellation cause, and the goroutine is abandoned to
// drain on its own — fn must therefore communicate only through its
// return values, never by writing shared state.
func RunBounded[T any](ctx context.Context, timeout time.Duration, fn func() (T, error)) (T, error) {
	if timeout <= 0 && ctx.Done() == nil {
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

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
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
	case <-timer:
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

// Semaphore is a counting admission gate bounding in-flight work units. A
// nil *Semaphore admits everything, so callers need no special casing
// when the budget is unlimited.
type Semaphore struct {
	slots chan struct{}
}

// NewSemaphore returns a semaphore admitting at most n units at once; n
// <= 0 returns nil (unlimited).
func NewSemaphore(n int) *Semaphore {
	if n <= 0 {
		return nil
	}
	return &Semaphore{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot frees or ctx is cancelled.
func (s *Semaphore) Acquire(ctx context.Context) error {
	if s == nil {
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return cause(ctx)
	}
}

// TryAcquire takes a slot without blocking, reporting whether one was
// free.
func (s *Semaphore) TryAcquire() bool {
	if s == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release frees a slot taken by Acquire or TryAcquire.
func (s *Semaphore) Release() {
	if s == nil {
		return
	}
	<-s.slots
}

// InFlight reports the number of slots currently held.
func (s *Semaphore) InFlight() int {
	if s == nil {
		return 0
	}
	return len(s.slots)
}
