package guard

import (
	"context"
	"errors"
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
