package source

import (
	"context"
	"errors"
	"net"
	"syscall"
	"time"
)

// listenRetry binds network!addr like net.Listen, but retries when the
// address is still in use — the predecessor's socket lingering in
// TIME_WAIT after a daemon restart, or a forwarder that has not released
// the port yet. Retries back off by netBackoff on a stopped timer bounded
// by ctx (the sleepCtx pattern), so cancellation during the wait returns
// immediately. Any other listen error fails fast: a malformed address
// never heals.
func listenRetry(ctx context.Context, network, addr string) (net.Listener, error) {
	const attempts = 5
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if err := sleepCtx(ctx, netBackoff(i)); err != nil {
				return nil, err
			}
		}
		ln, err := net.Listen(network, addr)
		if err == nil {
			return ln, nil
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// netBackoff is the sleep before retry n (from 1) of a transient network
// failure, a listen whose address is still in use or a failed Accept:
// doubling from 50ms, capped at 1s.
func netBackoff(n int) time.Duration {
	return doubling(50*time.Millisecond, time.Second, n)
}

// doubling is the capped-exponential schedule every retry in this package
// shares: base for attempt 1 (and below), doubled per further attempt up
// to max.
func doubling(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	return min(d, max)
}
