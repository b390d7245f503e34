package mapreduce

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"baywatch/internal/faultinject"
)

// These tests pin what a job's Result owes to the partition loop alone:
// Run's goroutine executor at any worker count, and a replay of the
// partitions one at a time through runPartition outside Run, give one
// answer.

// executorLines generates deterministic, distinct input lines.
func executorLines(n int) []string {
	words := []string{"beacon", "host", "dns", "c2", "ping", "poll", "jitter", "tick"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d %s %s %s", i,
			words[i%len(words)], words[(i*7+1)%len(words)], words[(i*3+2)%len(words)])
	}
	return lines
}

// executorJob counts each line's words over eight partitions; a line
// starting with "poison" fails.
func executorJob(workers, maxFailed int) *Job[string, kv] {
	return NewJob(
		JobConfig{Name: "executor-wordcount", Workers: workers, PartitionBits: 3, MaxFailed: maxFailed},
		func(line string) string { return line },
		func(line string) (kv, error) {
			if strings.HasPrefix(line, "poison") {
				return kv{}, fmt.Errorf("poisoned line %q", line)
			}
			return kv{Key: line, Count: len(strings.Fields(line))}, nil
		},
	)
}

// runByPartition replays the job one partition at a time, in partition
// order, through runPartition on the calling goroutine, sharing one
// failure budget across the partitions as Run does.
func runByPartition[I, O any](j *Job[I, O], inputs []I) (*Result[O], error) {
	var failed atomic.Int64
	res := &Result[O]{}
	for _, part := range j.partition(inputs) {
		outs, err := j.runPartition(context.Background(), nil, part, &failed)
		if err != nil {
			return nil, err
		}
		res.Outputs = append(res.Outputs, outs...)
	}
	res.Counters = Counters{
		Inputs:  int64(len(inputs)),
		Outputs: int64(len(res.Outputs)),
		Failed:  failed.Load(),
	}
	return res, nil
}

// TestExecDifferential: Run's Result — outputs, order and counters — is
// bit-identical to the partition-by-partition replay, whichever number of
// workers ran the partitions. The job has no combiner stage, which the
// case name records.
func TestExecDifferential(t *testing.T) {
	t.Run("combiner=false", func(t *testing.T) {
		inputs := executorLines(40)
		want, err := runByPartition(executorJob(1, 0), inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, err := executorJob(workers, 0).Run(context.Background(), inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: Run differs from the partition replay:\ngot  %+v\nwant %+v", workers, got, want)
			}
		}
	})
}

// TestExecEmptyInput: nil and empty inputs give the same empty Result
// from Run, at any worker count, and from the partition replay.
func TestExecEmptyInput(t *testing.T) {
	want := &Result[kv]{}
	for _, inputs := range [][]string{nil, {}} {
		replay, err := runByPartition(executorJob(1, 0), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(replay, want) {
			t.Fatalf("empty-input replay = %+v, want %+v", replay, want)
		}
		for _, workers := range []int{1, 3} {
			got, err := executorJob(workers, 0).Run(context.Background(), inputs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: empty-input Result = %+v, want %+v", workers, got, want)
			}
		}
	}
}

// TestExecFailureBudgetIsJobWide: MaxFailed is one budget for the whole
// job, not one per partition or per worker. Two poisoned lines in
// different partitions — neither partition alone exceeds a budget of one
// — abort a budget-1 run and pass a budget-2 run, at every worker count.
func TestExecFailureBudgetIsJobWide(t *testing.T) {
	const bits = 3
	poisoned := []string{"poison 0"}
	for i := 1; len(poisoned) < 2; i++ {
		line := fmt.Sprintf("poison %d", i)
		if partitionOf(line, bits) != partitionOf(poisoned[0], bits) {
			poisoned = append(poisoned, line)
		}
	}
	inputs := append(executorLines(30), poisoned...)
	for _, workers := range []int{1, 3} {
		if _, err := executorJob(workers, 1).Run(context.Background(), inputs); err == nil ||
			!strings.Contains(err.Error(), "poisoned line") {
			t.Fatalf("workers=%d, budget 1: err = %v, want the second poisoned line to abort", workers, err)
		}
		want, err := runByPartition(executorJob(workers, 2), inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := executorJob(workers, 2).Run(context.Background(), inputs)
		if err != nil {
			t.Fatalf("workers=%d, budget 2: %v", workers, err)
		}
		if got.Counters.Failed != 2 {
			t.Fatalf("workers=%d, budget 2: Failed = %d, want 2", workers, got.Counters.Failed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d, budget 2: Result differs from the partition replay:\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
	if _, err := runByPartition(executorJob(1, 1), inputs); err == nil {
		t.Fatal("budget 1: the partition replay accepted two failures")
	}
}

// TestExecWorkerKillEveryPointConverges crashes the task at every
// registered task-side fault point, one run per point, at the first input
// of the first non-empty partition. The crash is contained to that
// input's call and fails the run with the input named; it does not take
// the process down. A rerun of the same Job converges to the clean
// Result.
func TestExecWorkerKillEveryPointConverges(t *testing.T) {
	inputs := executorLines(30)
	job := executorJob(3, 0)
	want, err := job.Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, part := range job.partition(inputs) {
		if len(part) > 0 {
			first = part[0]
			break
		}
	}
	for _, pt := range []faultinject.Point{faultinject.PointMapreduceTask} {
		t.Run(string(pt), func(t *testing.T) {
			s := faultinject.New(0)
			s.CrashAt(pt.Keyed(first), 1)
			SetFaultHook(s.Hook())
			t.Cleanup(func() { SetFaultHook(nil) })

			crash, err := faultinject.Run(func() error {
				_, err := job.Run(context.Background(), inputs)
				return err
			})
			if crash != nil {
				t.Fatalf("crash at %s escaped the task: %v", pt, crash)
			}
			if err == nil || !strings.Contains(err.Error(), first) {
				t.Fatalf("crash at %s: err = %v, want the run failed naming %q", pt, err, first)
			}
			got, err := job.Run(context.Background(), inputs)
			if err != nil {
				t.Fatalf("rerun after crash at %s failed: %v", pt, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rerun after crash at %s diverged:\ngot  %+v\nwant %+v", pt, got, want)
			}
		})
	}
}

// TestExecDisabledRunsInProcess: the zero JobConfig runs the job
// in-process on its defaults — GOMAXPROCS workers over 2^5 partitions —
// and gives the single-worker Result and the partition replay's.
func TestExecDisabledRunsInProcess(t *testing.T) {
	inputs := executorLines(12)
	got := runWordCount(t, JobConfig{}, inputs)
	if want := runWordCount(t, JobConfig{Workers: 1, PartitionBits: 5}, inputs); !reflect.DeepEqual(got, want) {
		t.Fatalf("zero config diverged from one worker:\ngot  %+v\nwant %+v", got, want)
	}
	replay, err := runByPartition(wordCountJob(JobConfig{}), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, replay) {
		t.Fatalf("zero config diverged from the partition replay:\ngot  %+v\nwant %+v", got, replay)
	}
}
