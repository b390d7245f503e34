package source

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestListenRetryRecovers releases the contended port mid-retry and
// expects the bind to succeed on a later attempt.
func TestListenRetryRecovers(t *testing.T) {
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := blocker.Addr().String()
	go func() {
		time.Sleep(150 * time.Millisecond)
		blocker.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ln, err := listenRetry(ctx, "tcp", addr)
	if err != nil {
		t.Fatalf("listenRetry did not recover the released port: %v", err)
	}
	ln.Close()
}

// TestListenRetryCancelled holds the port for good: cancellation during
// the backoff sleep must end the retry loop promptly.
func TestListenRetryCancelled(t *testing.T) {
	blocker, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := listenRetry(ctx, "tcp", blocker.Addr().String()); err == nil {
		t.Fatal("want an error while the port stays held")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the backoff sleep is not ctx-bounded", elapsed)
	}
}

// TestListenRetryFailsFastOnBadAddress: only EADDRINUSE is retried.
func TestListenRetryFailsFastOnBadAddress(t *testing.T) {
	start := time.Now()
	if _, err := listenRetry(context.Background(), "tcp", "host.invalid:0"); err == nil {
		t.Fatal("want an error for an unresolvable address")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("unresolvable address took %v; non-EADDRINUSE errors must fail fast", elapsed)
	}
}

func TestAcceptBackoff(t *testing.T) {
	if d := netBackoff(1); d != 50*time.Millisecond {
		t.Errorf("first backoff %v, want 50ms", d)
	}
	if d := netBackoff(3); d != 200*time.Millisecond {
		t.Errorf("third backoff %v, want 200ms", d)
	}
	if d := netBackoff(20); d != time.Second {
		t.Errorf("late backoff %v, want the 1s cap", d)
	}
}

// TestBackoffSchedules pins the three retry schedules built on doubling,
// delay by delay: listenRetry's sleeps before its four retries, the accept
// loop's backoff (capped at 1s, and still capped far past any shift
// width), and the supervisor's restart delay at its default 100ms/15s
// bounds, whose fnv jitter must replay exactly.
func TestBackoffSchedules(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name     string
		delay    func(attempt int) time.Duration
		attempts []int
		want     []time.Duration
	}{
		{"listen", netBackoff, []int{1, 2, 3, 4}, []time.Duration{50 * ms, 100 * ms, 200 * ms, 400 * ms}},
		{"accept", netBackoff, []int{1, 2, 5, 6, 20, 100},
			[]time.Duration{50 * ms, 100 * ms, 800 * ms, time.Second, time.Second, time.Second}},
		{"restart", func(n int) time.Duration { return retryDelay("proxy", n, 0, 0) }, []int{1, 2, 3, 4, 8, 9, 20},
			[]time.Duration{79492187, 186425781, 287890625, 526171875, 9043750000, 14912109375, 11711425781}},
	} {
		for i, n := range tc.attempts {
			if got := tc.delay(n); got != tc.want[i] {
				t.Errorf("%s attempt %d: delay %v, want %v", tc.name, n, got, tc.want[i])
			}
		}
	}
}
