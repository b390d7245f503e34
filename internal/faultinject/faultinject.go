// Package faultinject is a deterministic, seed-driven fault scheduler for
// crash-safety and degraded-mode testing. Production code calls Check at
// named injection points (file writes, fsyncs, renames, task calls); it
// consults the one process-wide hook, which only tests install
// (t.Cleanup(Install(sched.Hook()))), so every package's points land in
// one ordered trace. A Scheduler behind the hook scripts failures:
//
//   - FailAt / FailTransient return injected errors at exact per-point hit
//     counts, modelling one-shot and transient I/O faults;
//   - CrashAt panics with a *Crash sentinel, modelling a process dying at
//     that instruction; Run converts the panic back into a value so the
//     test can "restart" the system and assert convergence, and Swallowed
//     names any crash the scheduler fired that a recover kept from Run;
//   - DelayAt sleeps at a point, modelling a slow call (degenerate fits,
//     saturated disks) for deadline tests;
//   - HangAt blocks at a point until ReleaseHangs, modelling a call that
//     never returns; the caller's deadline machinery must cancel
//     around it, and ReleaseHangs lets tests drain the abandoned
//     goroutine and assert no leaks;
//   - RandomErrors injects seed-driven pseudo-random faults that replay
//     identically for the same seed.
//
// The scheduler records every hit in order, so a test can first run a
// workload fault-free to enumerate its injection points and then re-run it
// once per hit with a fault scheduled there (At), restarting after each
// crash Run reports. All methods are safe for concurrent use; determinism
// under concurrency is the caller's responsibility (per-point hit counts
// are only deterministic where the workload hits a point from one
// goroutine, which is why hot concurrent paths use distinct keyed point
// names).
package faultinject

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hook is the installed fault hook; nil in production.
var hook atomic.Pointer[func(point string) error]

// Check is the fault seam: production code calls it at every injection
// point. With no hook installed it is one inlined atomic load. Otherwise
// it passes the hook p.Keyed(key), or p itself when key is empty, and
// returns what the hook returns. The empty point is none (a zero
// durable.Points). Under go test, a point whose unkeyed prefix is not in
// Points() panics: a typo'd name would otherwise run unscheduled.
func Check(p Point, key string) error {
	if hook.Load() == nil {
		return nil
	}
	return hooked(p, key)
}

func hooked(p Point, key string) error {
	h := hook.Load()
	if h == nil || p == "" {
		return nil
	}
	if testing.Testing() && !slices.Contains(Points(), unkeyed(p)) {
		panic(fmt.Sprintf("faultinject: point %q is not registered in Points()", p))
	}
	if key != "" {
		p = p.Keyed(key)
	}
	return (*h)(string(p))
}

// Install makes h the process-wide fault hook (nil removes it) and returns
// a func that reinstalls the hook it replaced: t.Cleanup(Install(h)).
// Points in flight on other goroutines may still see the old hook.
func Install(h func(point string) error) (restore func()) {
	var p *func(point string) error
	if h != nil {
		p = &h
	}
	prev := hook.Swap(p)
	return func() { hook.Store(prev) }
}

func unkeyed(p Point) Point {
	name, _, _ := strings.Cut(string(p), ":")
	return Point(name)
}

// Crash is the panic value raised at a scheduled crash point. It
// deliberately does not implement error: nothing should mistake a
// simulated process death for a returnable failure.
type Crash struct {
	// Point is the injection point that crashed.
	Point string
	// Hit is the per-point hit count at which the crash fired.
	Hit int
	// reached is set once Run recovered the crash.
	reached atomic.Bool
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
	// Watched reports whether the hit ran on a goroutine inside Run: a
	// crash anywhere else never reaches Run.
	Watched bool
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
	mu       sync.Mutex
	rng      *rand.Rand
	rules    []rule
	hits     map[string]int
	randProb float64
	randErr  error
	trace    []Hit
	// fired lists the crashes raised, for Swallowed.
	fired []*Crash

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

// Hook returns the function Check consults at injection points; pass it
// to Install.
func (s *Scheduler) Hook() func(point string) error { return s.check }

// Fatal reports whether a crash at h is a process death that Run sees:
// h ran on the goroutine Run watches, outside the pipeline's and ingest's
// task points.
func (h Hit) Fatal() bool { return h.Watched && !isolated(Point(h.Point)) }

// Enumerate picks the hits of a fault-free trace that an enumeration
// faults at: every fatal hit, and the first, middle and last hit of each
// other point, key stripped, where At injects an error. A task point's
// failures take one path pair after pair.
func Enumerate(trace []Hit) []Hit {
	tasks := make(map[Point][]Hit)
	var order []Point
	var out []Hit
	for _, h := range trace {
		if h.Fatal() {
			out = append(out, h)
			continue
		}
		p := unkeyed(Point(h.Point))
		if tasks[p] == nil {
			order = append(order, p)
		}
		tasks[p] = append(tasks[p], h)
	}
	for _, p := range order {
		hs := tasks[p]
		for _, i := range slices.Compact([]int{0, len(hs) / 2, len(hs) - 1}) {
			out = append(out, hs[i])
		}
	}
	return out
}

// At returns a scheduler that faults once, at trace hit h of a fault-free
// run: it crashes there when a crash would be a process death, and
// injects err where a recover would turn the crash into a task's failure
// instead — on a worker goroutine Run does not watch, or at a pipeline or
// ingest task point, wherever it runs. The second case rests on the
// isolated list; an enumeration checks Swallowed after each run, which
// names a crash scheduled at a recovered point that list does not hold.
func At(h Hit, err error) *Scheduler {
	s := New(0)
	if h.Fatal() {
		s.CrashAt(Point(h.Point), h.N)
	} else {
		s.FailAt(Point(h.Point), h.N, err)
	}
	return s
}

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
// modelling a slow (but eventually successful) call for deadline tests.
func (s *Scheduler) DelayAt(point Point, hit int, d time.Duration) {
	s.addRule(rule{point: string(point), from: hit, to: hit, delay: d})
}

// HangAt blocks the hit-th traversal of point until ReleaseHangs is
// called, modelling a call that never returns on its own. After release
// the traversal returns an injected error (the hang was a fault, not a
// success). The calling goroutine is parked — deadline machinery above
// the injection point must cancel around it, and the test must call
// ReleaseHangs before asserting goroutine counts.
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
	_, watched := watching.Load(goid())
	s.mu.Lock()
	s.hits[point]++
	n := s.hits[point]
	s.trace = append(s.trace, Hit{Point: point, N: n, Watched: watched})
	var crash *Crash
	var err error
	var delay time.Duration
	var hang bool
	for _, r := range s.rules {
		if r.point != point || n < r.from || n > r.to {
			continue
		}
		if r.crash {
			crash = &Crash{Point: point, Hit: n}
			s.fired = append(s.fired, crash)
		} else {
			err = r.err
			delay = r.delay
			hang = r.hang
		}
		break
	}
	if err == nil && crash == nil && !hang && delay == 0 && s.randProb > 0 && s.rng.Float64() < s.randProb {
		err = s.randErr
	}
	if hang {
		s.hangActive++
	}
	release := s.hangRelease
	s.mu.Unlock()
	if crash != nil {
		panic(crash)
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
	return len(s.trace)
}

// Swallowed returns the crashes the scheduler raised that no Run has
// recovered: a recover between the point and Run turned each into
// something else, so a run that scheduled it as a process death tested a
// failure instead. Call it once the runs are over.
func (s *Scheduler) Swallowed() []*Crash {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Crash
	for _, c := range s.fired {
		if !c.reached.Load() {
			out = append(out, c)
		}
	}
	return out
}

// Run executes fn, converting a scheduled crash back into a value: a
// non-nil *Crash means the simulated process died mid-fn and the system
// under test should be "restarted" from its persistent state. Other
// panics propagate. Hits on the calling goroutine are recorded as
// watched.
func Run(fn func() error) (crash *Crash, err error) {
	g := goid()
	if _, nested := watching.LoadOrStore(g, true); !nested {
		defer watching.Delete(g)
	}
	defer func() {
		if r := recover(); r != nil {
			if c, ok := r.(*Crash); ok {
				c.reached.Store(true)
				crash = c
				return
			}
			panic(r)
		}
	}()
	return nil, fn()
}

// watching holds the ids of the goroutines inside Run.
var watching sync.Map

// goid returns the calling goroutine's id, read from its stack header
// ("goroutine 18 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}
