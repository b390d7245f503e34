package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// identityJob returns each int; handy for asserting which inputs survived.
func identityJob(cfg JobConfig) *Job[int, int] {
	return NewJob(cfg,
		func(i int) string { return fmt.Sprint(i) },
		func(i int) (int, error) { return i, nil },
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
	job := NewJob(
		JobConfig{Name: "hung-call", Workers: 2, TaskTimeout: 50 * time.Millisecond, MaxFailed: 1},
		func(i int) string { return fmt.Sprint(i) },
		func(i int) (int, error) {
			if i == 3 {
				<-release // wedged far beyond the task deadline
			}
			return i, nil
		},
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
	if res.Counters.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Counters.Failed)
	}
	close(release)
	waitGoroutines(t, baseline)
}

// TestReduceFailedKeysBudget: a call that returns an output together with
// an error is dropped within the budget, and that output must not leak
// into the result.
func TestReduceFailedKeysBudget(t *testing.T) {
	job := NewJob(
		JobConfig{Name: "bad-key", MaxFailed: 1},
		func(i int) string { return fmt.Sprint(i) },
		func(i int) (int, error) {
			if i == 2 {
				return i, errors.New("poisoned input after producing output")
			}
			return i, nil
		},
	)
	res, err := job.Run(context.Background(), []int{1, 2, 3})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if got := sortedInts(t, res); !slices.Equal(got, []int{1, 3}) {
		t.Fatalf("outputs = %v, want [1 3]", got)
	}
	if res.Counters.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", res.Counters.Failed)
	}
}

func TestReduceFailureOverBudgetAborts(t *testing.T) {
	job := NewJob(
		JobConfig{Name: "bad-keys"},
		func(i int) string { return fmt.Sprint(i) },
		func(i int) (int, error) {
			if i%2 == 0 {
				return 0, errors.New("poisoned input")
			}
			return i, nil
		},
	)
	if _, err := job.Run(context.Background(), []int{1, 2, 3}); err == nil {
		t.Fatal("zero budget must abort on the first failure")
	}
}

func TestCancellationMidRunReturnsPromptly(t *testing.T) {
	baseline := runtime.NumGoroutine()
	sched := faultinject.New(0)
	sched.HangAt(faultinject.PointMapreduceTask.Keyed("1"), 1)
	SetFaultHook(sched.Hook())
	t.Cleanup(func() { SetFaultHook(nil); sched.ReleaseHangs() })

	// A long task deadline routes the call through the abandonable
	// bounded path without ever firing itself; promptness must come
	// purely from cancellation propagating through it.
	job := identityJob(JobConfig{Name: "cancelled", Workers: 1, TaskTimeout: time.Hour})

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
	waitGoroutines(t, baseline)
}
