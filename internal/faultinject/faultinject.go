// Package faultinject is a deterministic, seed-driven fault scheduler for
// crash-safety and degraded-mode testing. Production packages expose a
// fault hook — a nil-able `func(point string) error` consulted at named
// injection points (file writes, fsyncs, renames, task calls) — and tests
// install a Scheduler behind it to script failures:
//
//   - FailAt / FailTransient return injected errors at exact per-point hit
//     counts, modelling one-shot and transient I/O faults;
//   - CrashAt / CrashAtGlobalHit panic with a *Crash sentinel, modelling a
//     process dying at that instruction; Run converts the panic back into
//     a value so the test can "restart" the system and assert convergence;
//   - DelayAt sleeps at a point, modelling a slow call (degenerate fits,
//     saturated disks) for deadline and watchdog tests;
//   - HangAt blocks at a point until ReleaseHangs, modelling a call that
//     never returns; the caller's deadline/watchdog machinery must cancel
//     around it, and ReleaseHangs lets tests drain the abandoned
//     goroutine and assert no leaks;
//   - RandomErrors injects seed-driven pseudo-random faults that replay
//     identically for the same seed.
//
// The scheduler records every hit in order, so a test can first run a
// workload fault-free to enumerate its injection points and then re-run it
// once per point with a crash scheduled there (the
// crash-at-every-injection-point loop the opsloop recovery tests use).
// All methods are safe for concurrent use; determinism under concurrency
// is the caller's responsibility (per-point hit counts are only
// deterministic where the workload hits a point from one goroutine, which
// is why hot concurrent paths use distinct point names).
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Crash is the panic value raised at a scheduled crash point. It
// deliberately does not implement error: nothing should mistake a
// simulated process death for a returnable failure.
type Crash struct {
	// Point is the injection point that crashed.
	Point string
	// Hit is the per-point hit count at which the crash fired.
	Hit int
}

func (c *Crash) String() string {
	return fmt.Sprintf("faultinject: crash at %s (hit %d)", c.Point, c.Hit)
}

// Hit is one recorded traversal of an injection point.
type Hit struct {
	// Point is the injection point's name.
	Point string
	// N is the per-point hit count (1-based).
	N int
}

// rule scripts faults for one point: inject on per-point hits in
// [from, to] (inclusive, 1-based).
type rule struct {
	point    string
	from, to int
	err      error
	crash    bool
	delay    time.Duration
	hang     bool
}

// Scheduler scripts faults over named injection points. The zero value is
// not usable; construct with New.
type Scheduler struct {
	mu         sync.Mutex
	rng        *rand.Rand
	rules      []rule
	hits       map[string]int
	globalHits int
	crashAtN   int // crash at the nth Check call overall (0 = off)
	randProb   float64
	randErr    error
	trace      []Hit

	// Hang machinery: hangRelease is closed by ReleaseHangs; hangActive
	// counts goroutines currently blocked in a hang.
	hangRelease  chan struct{}
	hangReleased bool
	hangActive   int
}

// New returns an empty scheduler. seed drives RandomErrors; scripted
// rules are deterministic regardless of seed.
func New(seed int64) *Scheduler {
	return &Scheduler{
		rng:         rand.New(rand.NewSource(seed)),
		hits:        make(map[string]int),
		hangRelease: make(chan struct{}),
	}
}

// Hook returns the function production code calls at injection points;
// install it behind a package's fault seam.
func (s *Scheduler) Hook() func(point string) error { return s.check }

// FailAt injects err on the hit-th traversal of point (1-based).
func (s *Scheduler) FailAt(point Point, hit int, err error) {
	s.addRule(rule{point: string(point), from: hit, to: hit, err: err})
}

// FailTransient injects err on `times` consecutive traversals of point
// starting at hit, modelling a transient fault that clears on retry.
func (s *Scheduler) FailTransient(point Point, hit, times int, err error) {
	s.addRule(rule{point: string(point), from: hit, to: hit + times - 1, err: err})
}

// CrashAt panics with *Crash on the hit-th traversal of point.
func (s *Scheduler) CrashAt(point Point, hit int) {
	s.addRule(rule{point: string(point), from: hit, to: hit, crash: true})
}

// DelayAt sleeps d on the hit-th traversal of point before returning nil,
// modelling a slow (but eventually successful) call for deadline and
// watchdog tests.
func (s *Scheduler) DelayAt(point Point, hit int, d time.Duration) {
	s.addRule(rule{point: string(point), from: hit, to: hit, delay: d})
}

// HangAt blocks the hit-th traversal of point until ReleaseHangs is
// called, modelling a call that never returns on its own. After release
// the traversal returns an injected error (the hang was a fault, not a
// success). The calling goroutine is parked — deadline or watchdog
// machinery above the injection point must cancel around it, and the
// test must call ReleaseHangs before asserting goroutine counts.
func (s *Scheduler) HangAt(point Point, hit int) {
	s.addRule(rule{point: string(point), from: hit, to: hit, hang: true})
}

// ReleaseHangs unblocks every goroutine currently (or subsequently)
// parked by HangAt. Idempotent.
func (s *Scheduler) ReleaseHangs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hangReleased {
		s.hangReleased = true
		close(s.hangRelease)
	}
}

// ActiveHangs reports how many goroutines are currently parked by HangAt;
// tests use it to wait until an injected hang has engaged.
func (s *Scheduler) ActiveHangs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hangActive
}

// CrashAtGlobalHit panics with *Crash on the nth Check call overall
// (1-based), regardless of point. Combined with a fault-free enumeration
// run this crashes a workload at every injection point it traverses.
func (s *Scheduler) CrashAtGlobalHit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashAtN = n
}

// RandomErrors injects err at each traversal with probability p, drawn
// from the scheduler's seeded generator: the same seed and hit sequence
// replay the same faults.
func (s *Scheduler) RandomErrors(p float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.randProb, s.randErr = p, err
}

func (s *Scheduler) addRule(r rule) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = append(s.rules, r)
}

// check is the Hook implementation. Faults are decided under the lock;
// delays and hangs execute after it so a parked goroutine never blocks
// other injection points.
func (s *Scheduler) check(point string) error {
	s.mu.Lock()
	s.hits[point]++
	s.globalHits++
	n := s.hits[point]
	s.trace = append(s.trace, Hit{Point: point, N: n})
	crash := s.crashAtN > 0 && s.globalHits == s.crashAtN
	var err error
	var delay time.Duration
	var hang bool
	if !crash {
		for _, r := range s.rules {
			if r.point != point || n < r.from || n > r.to {
				continue
			}
			if r.crash {
				crash = true
			} else {
				err = r.err
				delay = r.delay
				hang = r.hang
			}
			break
		}
	}
	if err == nil && !crash && !hang && delay == 0 && s.randProb > 0 && s.rng.Float64() < s.randProb {
		err = s.randErr
	}
	if hang {
		s.hangActive++
	}
	release := s.hangRelease
	s.mu.Unlock()
	if crash {
		panic(&Crash{Point: point, Hit: n})
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if hang {
		<-release
		s.mu.Lock()
		s.hangActive--
		s.mu.Unlock()
		return fmt.Errorf("faultinject: hang at %s released", point)
	}
	return err
}

// Trace returns every hit recorded so far, in order.
func (s *Scheduler) Trace() []Hit {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Hit, len(s.trace))
	copy(out, s.trace)
	return out
}

// TotalHits returns the number of Check calls recorded so far.
func (s *Scheduler) TotalHits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.globalHits
}

// Run executes fn, converting a scheduled crash back into a value: a
// non-nil *Crash means the simulated process died mid-fn and the system
// under test should be "restarted" from its persistent state. Other
// panics propagate.
func Run(fn func() error) (crash *Crash, err error) {
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(*Crash); ok {
				crash = c
				return
			}
			panic(r)
		}
	}()
	return nil, fn()
}
