package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

var errInjected = errors.New("injected")

func TestFailAtExactHit(t *testing.T) {
	s := New(0)
	s.FailAt("write", 3, errInjected) //bw:faultpoint scratch point; this file tests the scheduler itself
	hook := s.Hook()
	for i := 1; i <= 5; i++ {
		err := hook("write")
		if (i == 3) != (err != nil) {
			t.Errorf("hit %d: err = %v", i, err)
		}
	}
	if err := hook("other"); err != nil {
		t.Errorf("unrelated point errored: %v", err)
	}
}

func TestFailTransientClearsAfterWindow(t *testing.T) {
	s := New(0)
	s.FailTransient("sync", 2, 3, errInjected) //bw:faultpoint scratch point; this file tests the scheduler itself
	hook := s.Hook()
	var got []bool
	for i := 1; i <= 6; i++ {
		got = append(got, hook("sync") != nil)
	}
	want := []bool{false, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit %d: injected=%v, want %v (all: %v)", i+1, got[i], want[i], got)
		}
	}
}

func TestCrashAtRecoveredByRun(t *testing.T) {
	s := New(0)
	s.CrashAt("rename", 2) //bw:faultpoint scratch point; this file tests the scheduler itself
	hook := s.Hook()
	crash, err := Run(func() error {
		for i := 0; i < 5; i++ {
			if err := hook("rename"); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if crash == nil {
		t.Fatal("expected a crash")
	}
	if crash.Point != "rename" || crash.Hit != 2 {
		t.Errorf("crash = %+v, want rename hit 2", crash)
	}
}

// TestTraceRecordsHitsInOrder: the trace lists every hit in order with
// its per-point count, and TotalHits counts them.
func TestTraceRecordsHitsInOrder(t *testing.T) {
	probe := New(0)
	hook := probe.Hook()
	for _, p := range []string{"a", "b", "a", "c"} {
		if err := hook(p); err != nil {
			t.Fatal(err)
		}
	}
	if probe.TotalHits() != 4 {
		t.Fatalf("TotalHits = %d, want 4", probe.TotalHits())
	}
	tr := probe.Trace()
	want := []Hit{{Point: "a", N: 1}, {Point: "b", N: 1}, {Point: "a", N: 2}, {Point: "c", N: 1}}
	if !slices.Equal(tr, want) {
		t.Fatalf("trace = %+v, want %+v", tr, want)
	}
}

// TestSwallowedNamesRecoveredCrash: a crash At schedules at a watched hit
// that a recover on the way turns into an error never reaches Run, and
// Swallowed names it; one that reaches Run is not named.
func TestSwallowedNamesRecoveredCrash(t *testing.T) {
	workload := func(hook func(string) error) func() error {
		return func() error {
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("task failed: %v", r)
					}
				}()
				return hook("task")
			}()
			if err != nil {
				return err
			}
			return hook("main")
		}
	}
	probe := New(0)
	if crash, err := Run(workload(probe.Hook())); crash != nil || err != nil {
		t.Fatal(crash, err)
	}
	tr := probe.Trace()
	if len(tr) != 2 || !tr[0].Fatal() || !tr[1].Fatal() {
		t.Fatalf("trace = %+v, want two fatal hits", tr)
	}
	task := At(tr[0], errInjected)
	if crash, err := Run(workload(task.Hook())); crash != nil || err == nil {
		t.Fatalf("recovered hit: crash %v err %v, want the recover's error", crash, err)
	}
	if sw := task.Swallowed(); len(sw) != 1 || sw[0].Point != "task" || sw[0].Hit != 1 {
		t.Fatalf("Swallowed = %v, want the crash at task", sw)
	}
	watched := At(tr[1], errInjected)
	if crash, _ := Run(workload(watched.Hook())); crash == nil || crash.Point != "main" {
		t.Fatalf("watched hit: crash %v, want a crash at main", crash)
	}
	if sw := watched.Swallowed(); len(sw) != 0 {
		t.Fatalf("Swallowed = %v after the crash reached Run, want none", sw)
	}
}

func TestRandomErrorsDeterministicPerSeed(t *testing.T) {
	sample := func(seed int64) []bool {
		s := New(seed)
		s.RandomErrors(0.3, errInjected)
		hook := s.Hook()
		out := make([]bool, 200)
		for i := range out {
			out[i] = hook("op") != nil
		}
		return out
	}
	a, b, c := sample(7), sample(7), sample(8)
	injected := 0
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
		if a[i] {
			injected++
		}
	}
	if injected == 0 || injected == len(a) {
		t.Errorf("p=0.3 injected %d/%d faults", injected, len(a))
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestRunPassesThroughErrorsAndForeignPanics(t *testing.T) {
	crash, err := Run(func() error { return errInjected })
	if crash != nil || !errors.Is(err, errInjected) {
		t.Errorf("Run = (%v, %v), want plain error", crash, err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Error("foreign panic swallowed")
		}
	}()
	Run(func() error { panic("not a crash") })
}

func TestDelayAt(t *testing.T) {
	s := New(1)
	s.DelayAt("slow.op", 2, 40*time.Millisecond) //bw:faultpoint scratch point; this file tests the scheduler itself
	hook := s.Hook()

	start := time.Now()
	if err := hook("slow.op"); err != nil {
		t.Fatalf("hit 1 should be clean, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Fatalf("hit 1 delayed: %v", elapsed)
	}
	start = time.Now()
	if err := hook("slow.op"); err != nil {
		t.Fatalf("delayed hit must still succeed, got %v", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("hit 2 returned after %v, want >= 40ms", elapsed)
	}
}

func TestHangAtBlocksUntilRelease(t *testing.T) {
	s := New(1)
	s.HangAt("wedged.op", 1) //bw:faultpoint scratch point; this file tests the scheduler itself
	hook := s.Hook()

	errc := make(chan error, 1)
	go func() { errc <- hook("wedged.op") }()

	deadline := time.Now().Add(5 * time.Second)
	for s.ActiveHangs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hang never engaged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	select {
	case err := <-errc:
		t.Fatalf("hang returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	s.ReleaseHangs()
	s.ReleaseHangs() // idempotent
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("released hang must return an injected error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hang not released")
	}
	if s.ActiveHangs() != 0 {
		t.Fatalf("ActiveHangs = %d after release", s.ActiveHangs())
	}
	// Hits past the scripted one are clean.
	if err := hook("wedged.op"); err != nil {
		t.Fatalf("hit 2 should be clean, got %v", err)
	}
}

// TestCheckRejectsUnregisteredPoint: with a hook installed, a point Points()
// does not list panics instead of running unscheduled; a registered point,
// keyed or not, reaches the hook under its keyed name.
func TestCheckRejectsUnregisteredPoint(t *testing.T) {
	var got []string
	t.Cleanup(Install(func(point string) error {
		got = append(got, point)
		return nil
	}))
	if err := Check(PointPipelineDetect, "a|b"); err != nil {
		t.Fatalf("keyed registered point: %v", err)
	}
	if err := Check(PointOpsloopCommitDone, ""); err != nil {
		t.Fatalf("unkeyed registered point: %v", err)
	}
	want := []string{string(PointPipelineDetect.Keyed("a|b")), string(PointOpsloopCommitDone)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("hook saw %q, want %q", got, want)
	}
	unregistered := Point("no.such.point")
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered point did not panic")
		}
	}()
	Check(unregistered, "k")
}

// TestCheckNoHookAllocs: with no hook installed a keyed Check allocates
// nothing; production pays one atomic load per point.
func TestCheckNoHookAllocs(t *testing.T) {
	t.Cleanup(Install(nil))
	if n := testing.AllocsPerRun(1000, func() { _ = Check(PointSourceFollowRead, "proxy") }); n != 0 {
		t.Fatalf("Check with no hook: %v allocs, want 0", n)
	}
}

// TestInstallRestoresPrevious: restore reinstalls the hook Install
// replaced, including none.
func TestInstallRestoresPrevious(t *testing.T) {
	t.Cleanup(Install(nil))
	first := New(0)
	restoreFirst := Install(first.Hook())
	second := New(0)
	restoreSecond := Install(second.Hook())
	Check(PointSourceCommitDone, "a")
	restoreSecond()
	Check(PointSourceCommitDone, "b")
	restoreFirst()
	Check(PointSourceCommitDone, "c")
	if second.TotalHits() != 1 || first.TotalHits() != 1 {
		t.Fatalf("hits: second %d, first %d; want 1 each", second.TotalHits(), first.TotalHits())
	}
	if h := first.Trace()[0]; h.Point != string(PointSourceCommitDone.Keyed("b")) {
		t.Fatalf("restored hook saw %q", h.Point)
	}
}

// TestAtCrashesWatchedFailsWorker: a hit on Run's goroutine is traced as
// watched and At crashes there; a hit on a goroutine it started is not,
// and At injects the error instead.
func TestAtCrashesWatchedFailsWorker(t *testing.T) {
	workload := func(hook func(string) error) func() error {
		return func() error {
			var werr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				werr = hook("worker")
			}()
			wg.Wait()
			if werr != nil {
				return werr
			}
			return hook("main")
		}
	}
	probe := New(0)
	if crash, err := Run(workload(probe.Hook())); crash != nil || err != nil {
		t.Fatal(crash, err)
	}
	tr := probe.Trace()
	if len(tr) != 2 || tr[0].Watched || !tr[1].Watched {
		t.Fatalf("trace = %+v, want an unwatched worker hit, then a watched one", tr)
	}
	if crash, err := Run(workload(At(tr[0], errInjected).Hook())); crash != nil || !errors.Is(err, errInjected) {
		t.Fatalf("worker hit: crash %v err %v, want the injected error", crash, err)
	}
	if crash, _ := Run(workload(At(tr[1], errInjected).Hook())); crash == nil || crash.Point != "main" {
		t.Fatalf("watched hit: crash %v, want a crash at main", crash)
	}
}

// TestEnumerateKeepsFatalSamplesTasks: every fatal hit is kept in order;
// a task point's hits, whatever their keys, and a worker's unwatched hits
// are cut to their first, middle and last.
func TestEnumerateKeepsFatalSamplesTasks(t *testing.T) {
	var trace []Hit
	for i := 1; i <= 5; i++ {
		trace = append(trace,
			Hit{Point: string(PointSourceCommitDone.Keyed("checkpoint")), N: i, Watched: true},
			Hit{Point: string(PointPipelineDetect.Keyed(string(rune('a' + i)))), N: 1, Watched: true})
	}
	trace = append(trace, Hit{Point: string(PointSourceFollowRead), N: 1})
	got := Enumerate(trace)
	var fatal, detect, worker int
	for _, h := range got {
		switch {
		case h.Fatal():
			fatal++
		case unkeyed(Point(h.Point)) == PointPipelineDetect:
			detect++
		default:
			worker++
		}
	}
	if fatal != 5 || detect != 3 || worker != 1 || len(got) != 9 {
		t.Fatalf("Enumerate kept %d fatal, %d detect, %d worker hits (%d total), want 5, 3, 1", fatal, detect, worker, len(got))
	}
	if got[0] != trace[0] || got[4] != trace[8] {
		t.Fatalf("fatal hits out of trace order: %+v", got[:5])
	}
}
