package guard

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestRunBoundedInline(t *testing.T) {
	v, err := RunBounded(context.Background(), 0, func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("got (%v, %v), want (42, nil)", v, err)
	}
	injected := errors.New("boom")
	if _, err := RunBounded(context.Background(), 0, func() (int, error) { return 0, injected }); !errors.Is(err, injected) {
		t.Fatalf("error lost: %v", err)
	}
}

func TestRunBoundedTimeout(t *testing.T) {
	release := make(chan struct{})
	start := time.Now()
	_, err := RunBounded(context.Background(), 30*time.Millisecond, func() (int, error) {
		<-release
		return 1, nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout not honored: took %v", elapsed)
	}
	if Abandoned() == 0 {
		t.Fatal("abandoned counter should be positive while fn is hung")
	}
	close(release)
	waitFor(t, 5*time.Second, "abandoned drain", func() bool { return Abandoned() == 0 })
}

func TestRunBoundedContextCause(t *testing.T) {
	stallCause := errors.New("stalled by test")
	ctx, cancel := context.WithCancelCause(context.Background())
	release := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel(stallCause)
	}()
	_, err := RunBounded(ctx, time.Hour, func() (int, error) { <-release; return 0, nil })
	if !errors.Is(err, stallCause) {
		t.Fatalf("err = %v, want cancellation cause", err)
	}
	close(release)
	waitFor(t, 5*time.Second, "abandoned drain", func() bool { return Abandoned() == 0 })
}

// TestRunBoundedNoTimeoutRunsInline: without a timeout fn runs on the
// caller's goroutine even when ctx can be cancelled — here it already is
// — so its result is returned and nothing is abandoned.
func TestRunBoundedNoTimeoutRunsInline(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(errors.New("cancelled before the call"))
	release := make(chan struct{})
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release)
	}()
	v, err := RunBounded(ctx, 0, func() (int, error) { <-release; return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("got (%v, %v), want (42, nil)", v, err)
	}
	if n := Abandoned(); n != 0 {
		t.Fatalf("Abandoned() = %d, want 0", n)
	}
}

func TestRunBoundedCompletesUnderDeadline(t *testing.T) {
	v, err := RunBounded(context.Background(), time.Second, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("got (%q, %v)", v, err)
	}
	waitFor(t, 5*time.Second, "abandoned drain", func() bool { return Abandoned() == 0 })
}

func TestWatchdogCancelsStalledWorker(t *testing.T) {
	var observed []string
	var mu sync.Mutex
	SetFaultHook(func(point string) error {
		mu.Lock()
		observed = append(observed, point)
		mu.Unlock()
		return nil
	})
	t.Cleanup(func() { SetFaultHook(nil) })

	wd := NewWatchdog(20*time.Millisecond, 5*time.Millisecond)
	defer wd.Stop()
	cancelled := make(chan struct{})
	var once sync.Once
	registered := time.Now()
	hb := wd.Register("stuck-worker", func() { once.Do(func() { close(cancelled) }) })
	defer hb.Done()

	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never cancelled the silent worker")
	}
	if idle := time.Since(registered); idle < 20*time.Millisecond {
		t.Fatalf("worker cancelled after %v of silence, want >= 20ms", idle)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, p := range observed {
		if strings.HasPrefix(p, string(faultinject.PointGuardWatchdogStall.Keyed("stuck-worker"))) {
			found = true
		}
	}
	if !found {
		t.Fatalf("stall not surfaced via fault hook; saw %v", observed)
	}
}

func TestWatchdogBeatPreventsStall(t *testing.T) {
	wd := NewWatchdog(50*time.Millisecond, 5*time.Millisecond)
	defer wd.Stop()
	var cancels int
	var mu sync.Mutex
	hb := wd.Register("live-worker", func() { mu.Lock(); cancels++; mu.Unlock() })
	defer hb.Done()
	for i := 0; i < 10; i++ {
		hb.Beat()
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if cancels != 0 {
		t.Fatalf("beating worker was cancelled %d times", cancels)
	}
}

func TestWatchdogStopTerminatesMonitor(t *testing.T) {
	before := runtime.NumGoroutine()
	wd := NewWatchdog(time.Hour, time.Millisecond)
	wd.Stop()
	wd.Stop() // idempotent
	waitFor(t, 5*time.Second, "monitor exit", func() bool { return runtime.NumGoroutine() <= before })
}

func TestSemaphore(t *testing.T) {
	var s *Semaphore // nil: unlimited
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Release()
	if !s.TryAcquire() || s.InFlight() != 0 {
		t.Fatal("nil semaphore must admit everything")
	}

	s = NewSemaphore(2)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.TryAcquire() {
		t.Fatal("third acquire should fail")
	}
	if s.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", s.InFlight())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked acquire: err = %v", err)
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("released slot not reusable")
	}
	s.Release()
	s.Release()
}

// TestSemaphoreCancelledWaitersLeakNoPermits queues many waiters on a
// full semaphore, cancels some of them, and checks the invariants the
// query endpoint's admission control relies on: a cancelled waiter
// unblocks promptly with the cancellation cause and takes no permit with
// it, and a waiter that stays queued still gets the permit when one
// frees.
func TestSemaphoreCancelledWaitersLeakNoPermits(t *testing.T) {
	s := NewSemaphore(1)
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// A batch of waiters that will all be cancelled while queued.
	cancelCause := errors.New("caller gave up")
	cctx, cancelWaiters := context.WithCancelCause(context.Background())
	const cancelled = 8
	cancelledErrs := make(chan error, cancelled)
	for i := 0; i < cancelled; i++ {
		go func() { cancelledErrs <- s.Acquire(cctx) }()
	}
	// One patient waiter that must eventually win the permit.
	patientDone := make(chan error, 1)
	go func() { patientDone <- s.Acquire(context.Background()) }()

	cancelWaiters(cancelCause)
	for i := 0; i < cancelled; i++ {
		select {
		case err := <-cancelledErrs:
			if !errors.Is(err, cancelCause) {
				t.Fatalf("cancelled waiter returned %v, want its cancellation cause", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled waiter did not unblock promptly")
		}
	}
	select {
	case err := <-patientDone:
		t.Fatalf("patient waiter returned early (%v) with the permit still held", err)
	default:
	}
	if s.InFlight() != 1 {
		t.Fatalf("InFlight = %d after cancellations, want 1 (no leaked permits)", s.InFlight())
	}

	// Releasing the permit serves the surviving waiter, not a ghost.
	s.Release()
	select {
	case err := <-patientDone:
		if err != nil {
			t.Fatalf("patient waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("patient waiter never got the released permit")
	}
	if s.InFlight() != 1 {
		t.Fatalf("InFlight = %d with the patient waiter admitted, want 1", s.InFlight())
	}
	s.Release()
	if s.InFlight() != 0 {
		t.Fatalf("InFlight = %d after final release, want 0", s.InFlight())
	}
}
