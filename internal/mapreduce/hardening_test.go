package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestPoisonedInputSkippedWithinBudget: a failing input is dropped and
// counted when MaxFailed allows it, and the rest of the job completes.
func TestPoisonedInputSkippedWithinBudget(t *testing.T) {
	res, err := NewJob(JobConfig{Workers: 3, MaxFailed: 1},
		func(line string) string { return line },
		func(line string) (kv, error) {
			if line == "poison" {
				return kv{Key: line}, errors.New("fails after producing output")
			}
			return kv{Key: line, Count: len(strings.Fields(line))}, nil
		},
	).Run(context.Background(), []string{"a", "poison", "a b"})
	if err != nil {
		t.Fatalf("poisoned input within budget should be skipped: %v", err)
	}
	counts := map[string]int{}
	for _, o := range res.Outputs {
		counts[o.Key] = o.Count
	}
	want := map[string]int{"a": 1, "a b": 2}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	if res.Counters.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Counters.Failed)
	}
}

// TestPoisonedInputsBeyondBudgetAbort: one failure more than MaxFailed
// aborts the job with the underlying error.
func TestPoisonedInputsBeyondBudgetAbort(t *testing.T) {
	job := NewJob(JobConfig{Workers: 1, MaxFailed: 1},
		func(n int) string { return fmt.Sprint(n) },
		func(n int) (int, error) {
			if n < 0 {
				return 0, fmt.Errorf("bad record %d", n)
			}
			return n, nil
		},
	)
	_, err := job.Run(context.Background(), []int{1, -1, 2, -2, 3})
	if err == nil {
		t.Fatal("expected abort when failed inputs exceed budget")
	}
	if !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("error should carry the record failure: %v", err)
	}
}

// panicky panics on the input 13 and returns every other input.
func panicky(cfg JobConfig) *Job[int, int] {
	return NewJob(cfg,
		func(n int) string { return fmt.Sprint(n) },
		func(n int) (int, error) {
			if n == 13 {
				panic("unlucky record")
			}
			return n, nil
		},
	)
}

// TestMapPanicIsolatedAsFailedInput: a panicking call is converted to a
// failure and charged against the budget instead of crashing the process.
func TestMapPanicIsolatedAsFailedInput(t *testing.T) {
	res, err := panicky(JobConfig{Workers: 2, MaxFailed: 1}).Run(context.Background(), []int{1, 13, 2})
	if err != nil {
		t.Fatalf("panic should be isolated: %v", err)
	}
	if res.Counters.Failed != 1 {
		t.Errorf("Failed = %d, want 1", res.Counters.Failed)
	}
	if len(res.Outputs) != 2 {
		t.Errorf("outputs = %v, want the two surviving records", res.Outputs)
	}
}

// TestMapPanicWithoutBudgetAborts: with no failure budget the panic
// surfaces as a job error (not a process crash).
func TestMapPanicWithoutBudgetAborts(t *testing.T) {
	_, err := panicky(JobConfig{Workers: 1}).Run(context.Background(), []int{13})
	if err == nil || !strings.Contains(err.Error(), "task panic") {
		t.Fatalf("expected task panic error, got %v", err)
	}
}

// TestReducePanicSurfacesAsError: a panic's job error carries the panic
// value and the failing input's key.
func TestReducePanicSurfacesAsError(t *testing.T) {
	_, err := panicky(JobConfig{}).Run(context.Background(), []int{1, 13, 2})
	if err == nil || !strings.Contains(err.Error(), "unlucky record") || !strings.Contains(err.Error(), `"13"`) {
		t.Fatalf("expected the panic value and key in the error, got %v", err)
	}
}

// TestCancellationMidReduce: cancelling the context while calls run
// returns promptly with ctx.Err.
func TestCancellationMidReduce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	job := NewJob(JobConfig{Workers: 1},
		func(n int) string { return fmt.Sprint(n) },
		func(n int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return 0, ctx.Err()
		},
	)
	done := make(chan error, 1)
	go func() {
		_, err := job.Run(ctx, []int{1, 2, 3, 4})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}
