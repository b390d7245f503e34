package guard

import (
	"baywatch/internal/faultinject"

	"sync"
	"sync/atomic"
	"time"
)

// Watchdog tracks per-worker progress heartbeats and cancels the current
// task of any worker that stops making progress. Workers register with
// Register, call Beat at every unit-of-work boundary, and Done when they
// exit; the monitor goroutine scans at its poll cadence and fires each
// worker's cancel function once per stall (a subsequent Beat re-arms it).
// Stalls surface through the fault-hook seam at point
// "guard.watchdog.stall:<worker>" so tests can observe them
// deterministically.
type Watchdog struct {
	stall time.Duration
	poll  time.Duration

	mu      sync.Mutex
	workers map[*Heartbeat]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Heartbeat is one worker's progress channel to the watchdog.
type Heartbeat struct {
	name    string
	cancel  func()
	wd      *Watchdog
	last    atomic.Int64 // UnixNano of the latest Beat
	stalled atomic.Bool  // set when cancelled, cleared by Beat
}

// NewWatchdog starts a watchdog cancelling tasks idle longer than stall.
// poll <= 0 defaults to stall/4. Callers must Stop it when done.
func NewWatchdog(stall, poll time.Duration) *Watchdog {
	if stall <= 0 {
		stall = 30 * time.Second
	}
	if poll <= 0 {
		poll = stall / 4
	}
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	w := &Watchdog{
		stall:   stall,
		poll:    poll,
		workers: make(map[*Heartbeat]struct{}),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go w.monitor()
	return w
}

// Register adds a worker. cancel is invoked (from the monitor goroutine)
// when the worker stalls; it must be safe to call concurrently with the
// worker and more than once. The returned Heartbeat starts armed as of
// now.
func (w *Watchdog) Register(name string, cancel func()) *Heartbeat {
	h := &Heartbeat{name: name, cancel: cancel, wd: w}
	h.last.Store(time.Now().UnixNano())
	w.mu.Lock()
	w.workers[h] = struct{}{}
	w.mu.Unlock()
	return h
}

// Beat publishes progress: the worker finished one unit and started the
// next. It also re-arms a worker previously cancelled as stalled.
func (h *Heartbeat) Beat() {
	h.last.Store(time.Now().UnixNano())
	h.stalled.Store(false)
}

// Done deregisters the worker.
func (h *Heartbeat) Done() {
	if h == nil {
		return
	}
	h.wd.mu.Lock()
	delete(h.wd.workers, h)
	h.wd.mu.Unlock()
}

// Stop terminates the monitor goroutine and waits for it. Registered
// workers are left untouched.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

func (w *Watchdog) monitor() {
	defer close(w.done)
	ticker := time.NewTicker(w.poll)
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		w.mu.Lock()
		live := make([]*Heartbeat, 0, len(w.workers))
		for h := range w.workers {
			live = append(live, h)
		}
		w.mu.Unlock()
		for _, h := range live {
			idle := now.Sub(time.Unix(0, h.last.Load()))
			if idle < w.stall || !h.stalled.CompareAndSwap(false, true) {
				continue
			}
			// Surface the stall through the fault-hook seam (observation
			// only; the returned error is irrelevant here) and cancel the
			// worker's current task.
			_ = faultCheck(faultinject.PointGuardWatchdogStall.Keyed(h.name))
			if h.cancel != nil {
				h.cancel()
			}
		}
	}
}
