package guard

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (with slack for runtime helpers), failing the test if the
// drain never happens. Leaked monitor or worker goroutines are exactly
// what the goleak analyzer guards against statically; this asserts it
// dynamically under -race.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchdogStressConcurrentBeats hammers one watchdog with many
// workers beating, re-registering, and deregistering concurrently while
// the monitor scans at a tight interval. Meaningful under -race: the
// heartbeat map, stall marking, and Stop/monitor handshake all run
// concurrently. Determinism comes from what is asserted — no worker
// that beats continuously is ever stalled, and everything drains.
func TestWatchdogStressConcurrentBeats(t *testing.T) {
	baseline := runtime.NumGoroutine()
	wd := NewWatchdog(500*time.Millisecond, time.Millisecond)

	const workers = 16
	const beats = 200
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := wd.Register("stress-worker", func() { cancelled.Add(1) })
			for b := 0; b < beats; b++ {
				h.Beat()
			}
			h.Done()
		}(i)
	}
	wg.Wait()
	wd.Stop()

	if n := cancelled.Load(); n != 0 {
		t.Errorf("watchdog cancelled %d continuously-beating workers; stall window is 500ms", n)
	}
	waitForGoroutines(t, baseline)
}

// TestWatchdogStressStalls is the inverse: workers that register and
// never beat must each be cancelled exactly once, concurrently with
// workers that do beat (who must be left alone).
func TestWatchdogStressStalls(t *testing.T) {
	baseline := runtime.NumGoroutine()
	wd := NewWatchdog(10*time.Millisecond, time.Millisecond)

	const stalled = 8
	var fired sync.WaitGroup
	fired.Add(stalled)
	var once [stalled]sync.Once
	hs := make([]*Heartbeat, stalled)
	for i := 0; i < stalled; i++ {
		i := i
		hs[i] = wd.Register("stalled-worker", func() {
			once[i].Do(fired.Done)
		})
	}

	// A live worker beating through the whole window, on another goroutine.
	liveStop := make(chan struct{})
	var liveCancelled atomic.Int64
	var liveWG sync.WaitGroup
	liveWG.Add(1)
	go func() {
		defer liveWG.Done()
		h := wd.Register("live-worker", func() { liveCancelled.Add(1) })
		defer h.Done()
		for {
			select {
			case <-liveStop:
				return
			default:
				h.Beat()
				time.Sleep(time.Millisecond)
			}
		}
	}()

	fired.Wait() // every stalled worker was cancelled
	close(liveStop)
	liveWG.Wait()
	for _, h := range hs {
		h.Done()
	}
	wd.Stop()

	if n := liveCancelled.Load(); n != 0 {
		t.Errorf("live worker cancelled %d times while beating every 1ms against a 10ms window", n)
	}
	waitForGoroutines(t, baseline)
}

// TestSemaphoreStress runs acquire/release cycles from many goroutines,
// with cancellation pressure, and asserts the invariant the semaphore
// exists for: in-flight never exceeds capacity, every admitted acquire
// is released, and no waiter goroutine outlives the test.
func TestSemaphoreStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const capacity = 4
	const workers = 32
	const rounds = 50

	sem := NewSemaphore(capacity)
	var inFlight atomic.Int64
	var peak atomic.Int64
	var admitted atomic.Int64

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := sem.Acquire(ctx); err != nil {
					return // cancellation pressure below
				}
				n := inFlight.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				admitted.Add(1)
				inFlight.Add(-1)
				sem.Release()
			}
		}(w)
	}
	// Cancel partway: goroutines blocked in Acquire must unblock promptly
	// instead of leaking.
	time.Sleep(10 * time.Millisecond)
	cancel()
	wg.Wait()

	if p := peak.Load(); p > capacity {
		t.Errorf("observed %d concurrent holders, capacity is %d", p, capacity)
	}
	if sem.InFlight() != 0 {
		t.Errorf("semaphore reports %d in flight after all workers returned", sem.InFlight())
	}
	if admitted.Load() == 0 {
		t.Error("no acquire ever succeeded; the stress exercised nothing")
	}
	// The semaphore must be immediately reusable to full capacity.
	for i := 0; i < capacity; i++ {
		if !sem.TryAcquire() {
			t.Fatalf("TryAcquire %d/%d failed on a drained semaphore", i+1, capacity)
		}
	}
	if sem.TryAcquire() {
		t.Error("TryAcquire beyond capacity succeeded")
	}
	for i := 0; i < capacity; i++ {
		sem.Release()
	}
	waitForGoroutines(t, baseline)
}
