package mapreduce

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/guard"
)

// identityJob maps each int to itself and reduces by summing; handy for
// asserting which inputs survived.
func identityJob(cfg JobConfig) *Job[int, int, int, int] {
	return NewJob[int, int, int, int](cfg,
		func(i int, emit Emitter[int, int]) error { emit(i, i); return nil },
		func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	)
}

func sortedInts(t *testing.T, res *Result[int]) []int {
	t.Helper()
	out := append([]int(nil), res.Outputs...)
	sort.Ints(out)
	return out
}

func waitGoroutines(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > limit {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, want <= %d", runtime.NumGoroutine(), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTaskTimeoutSkipsHungInput(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	job := NewJob[int, int, int, int](
		JobConfig{Name: "hung-map", Mappers: 2, Reducers: 2,
			TaskTimeout: 50 * time.Millisecond, MaxFailedInputs: 1},
		func(i int, emit Emitter[int, int]) error {
			if i == 3 {
				<-release // wedged far beyond the task deadline
			}
			emit(i, i)
			return nil
		},
		func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	)
	start := time.Now()
	res, err := job.Run(context.Background(), []int{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("job not bounded: took %v", elapsed)
	}
	if got := sortedInts(t, res); len(got) != 4 || got[0] != 1 || got[3] != 5 {
		t.Fatalf("outputs = %v, want the 4 non-hung inputs", got)
	}
	if res.Counters.FailedInputs != 1 {
		t.Fatalf("FailedInputs = %d, want 1", res.Counters.FailedInputs)
	}
	close(release)
	waitGoroutines(t, baseline)
}

func TestWatchdogCancelsStalledMapTask(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceMapTask, 2)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil); sched.ReleaseHangs() })

	wd := guard.NewWatchdog(50*time.Millisecond, 5*time.Millisecond)
	defer wd.Stop()
	job := identityJob(JobConfig{Name: "stalled-map", Mappers: 1, Reducers: 1,
		Watchdog: wd, MaxFailedInputs: 1})
	res, err := job.Run(context.Background(), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Counters.FailedInputs != 1 {
		t.Fatalf("FailedInputs = %d, want 1", res.Counters.FailedInputs)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("outputs = %v, want 3 surviving inputs", res.Outputs)
	}
	stalls := wd.Stalls()
	if len(stalls) == 0 || !strings.HasPrefix(stalls[0].Worker, "stalled-map/map-") {
		t.Fatalf("watchdog recorded no map stall: %+v", stalls)
	}
	sched.ReleaseHangs()
	wd.Stop() // idempotent; stop before the leak check so the monitor exits
	waitGoroutines(t, baseline)
}

func TestWatchdogCancelsStalledReduceTask(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceReduceTask, 2)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil); sched.ReleaseHangs() })

	wd := guard.NewWatchdog(50*time.Millisecond, 5*time.Millisecond)
	defer wd.Stop()
	job := identityJob(JobConfig{Name: "stalled-reduce", Mappers: 1, Reducers: 1,
		Watchdog: wd, MaxFailedKeys: 1})
	res, err := job.Run(context.Background(), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Counters.FailedKeys != 1 {
		t.Fatalf("FailedKeys = %d, want 1", res.Counters.FailedKeys)
	}
	if len(res.Outputs) != 3 {
		t.Fatalf("outputs = %v, want 3 surviving keys", res.Outputs)
	}
	sched.ReleaseHangs()
	wd.Stop()
	waitGoroutines(t, baseline)
}

// TestReduceFailedKeysBudget: a key whose reduce call emits and then
// fails is dropped within the budget, and its partial output must not
// leak into the result.
func TestReduceFailedKeysBudget(t *testing.T) {
	job := NewJob[int, int, int, int](
		JobConfig{Name: "bad-key", MaxFailedKeys: 1},
		func(i int, emit Emitter[int, int]) error { emit(i, i); return nil },
		func(k int, vs []int, emit func(int)) error {
			emit(k)
			if k == 2 {
				return errors.New("poisoned key after emitting")
			}
			return nil
		},
	)
	res, err := job.Run(context.Background(), []int{1, 2, 3})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := sortedInts(t, res); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("outputs = %v, want [1 3]", got)
	}
	if res.Counters.FailedKeys != 1 {
		t.Fatalf("FailedKeys = %d, want 1", res.Counters.FailedKeys)
	}
}

func TestReduceFailureOverBudgetAborts(t *testing.T) {
	job := NewJob[int, int, int, int](
		JobConfig{Name: "bad-keys"},
		func(i int, emit Emitter[int, int]) error { emit(i, i); return nil },
		func(k int, vs []int, emit func(int)) error {
			if k%2 == 0 {
				return errors.New("poisoned key")
			}
			emit(k)
			return nil
		},
	)
	if _, err := job.Run(context.Background(), []int{1, 2, 3}); err == nil {
		t.Fatal("zero budget must abort on first reduce failure")
	}
}

func TestCancellationMidRunReturnsPromptly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceMapTask, 1)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil); sched.ReleaseHangs() })

	// No TaskTimeout: promptness must come purely from cancellation
	// propagating through the guarded path (watchdog present but with a
	// very long stall bound, so it never fires).
	wd := guard.NewWatchdog(time.Hour, time.Millisecond)
	defer wd.Stop()
	job := identityJob(JobConfig{Name: "cancelled", Mappers: 1, Reducers: 1, Watchdog: wd})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := job.Run(ctx, []int{1, 2, 3})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sched.ActiveHangs() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hang never engaged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Run did not return after cancellation (waited %v)", time.Since(start))
	}
	sched.ReleaseHangs()
	wd.Stop()
	waitGoroutines(t, baseline)
}
