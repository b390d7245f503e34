// Package mapreduce implements the partitioned job BAYWATCH's two jobs run
// on: beaconing detection and the rescale/merge of Sect. VII-B. It keeps
// what the paper's Hadoop implementation needs from the model — hash
// partitioning by H(s,d) to size the fan-out, one guarded call per pair
// under a failure budget, counters — with goroutine workers on one host
// standing in for cluster nodes.
//
// A job is a key function and a per-input function:
//
//	job := mapreduce.NewJob(mapreduce.JobConfig{PartitionBits: 5},
//	        func(p Pair) string { return p.Src + "|" + p.Dst },
//	        detectPair)
//	out, err := job.Run(ctx, pairs)
//
// Partition p holds the inputs whose key hashes to p, in input order; each
// partition is one task, and the outputs come back in partition order.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/guard"
)

// JobConfig controls parallelism, partitioning and the per-input failure
// bounds.
type JobConfig struct {
	// Name appears in error messages and watchdog worker names.
	Name string
	// Workers is the number of parallel task workers; defaults to
	// GOMAXPROCS.
	Workers int
	// PartitionBits sets the number of partitions (2^PartitionBits),
	// mirroring the paper's hash function H: "a 5-bit hash results in 32
	// REDUCE tasks". Defaults to 5.
	PartitionBits int
	// MaxFailed is the failure budget: inputs whose call fails (error,
	// panic, timeout or stall) are dropped and counted (Counters.Failed) as
	// long as their total stays within the budget; one more aborts the job.
	// 0 (the default) aborts on the first failure.
	MaxFailed int
	// TaskTimeout bounds each input's call in wall-clock time. A timed-out
	// call is a failure charged against MaxFailed; the overrunning call is
	// abandoned to drain on its own, not killed. 0 disables.
	TaskTimeout time.Duration
	// Watchdog, when non-nil, receives per-worker progress heartbeats;
	// a worker that stops progressing between calls has its current call
	// cancelled (a failure, like a timeout). The engine registers and
	// deregisters its workers itself.
	Watchdog *guard.Watchdog
}

func (c JobConfig) withDefaults() JobConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.PartitionBits <= 0 {
		c.PartitionBits = 5
	}
	if c.PartitionBits > 16 {
		c.PartitionBits = 16
	}
	return c
}

// Job is a configured partitioned job. Create it with NewJob and execute it
// with Run; a Job is immutable and can be Run repeatedly.
type Job[I, O any] struct {
	cfg JobConfig
	key func(I) string
	fn  func(I) (O, error)
}

// NewJob builds a job that calls fn once per input, partitioning the
// inputs by key.
func NewJob[I, O any](cfg JobConfig, key func(I) string, fn func(I) (O, error)) *Job[I, O] {
	return &Job[I, O]{cfg: cfg.withDefaults(), key: key, fn: fn}
}

// Counters reports the volume statistics of one run.
type Counters struct {
	// Inputs is the number of inputs the job was given.
	Inputs int64
	// Outputs is the number of calls that succeeded: one output each.
	Outputs int64
	// Failed is the number of inputs dropped after their call failed
	// (bounded by JobConfig.MaxFailed).
	Failed int64
}

// Result bundles a run's outputs and counters.
type Result[O any] struct {
	Outputs  []O
	Counters Counters
}

// partitionOf is the paper's H: FNV-1a of the key, modulo 2^bits.
func partitionOf(key string, bits int) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h & (1<<bits - 1))
}

// partition splits the inputs into the job's 2^PartitionBits partitions,
// each in input order.
func (j *Job[I, O]) partition(inputs []I) [][]I {
	parts := make([][]I, 1<<j.cfg.PartitionBits)
	for _, in := range inputs {
		p := partitionOf(j.key(in), j.cfg.PartitionBits)
		parts[p] = append(parts[p], in)
	}
	return parts
}

// Run executes the job over the inputs in-process: Workers goroutines,
// each registered with the job's watchdog as <name>/task-<w>, take the
// partitions one at a time. Outputs are ordered by partition and, within
// a partition, by input, whichever worker ran which partition. The first
// failure past the budget cancels the other tasks and is returned; so is
// ctx's cancellation.
func (j *Job[I, O]) Run(ctx context.Context, inputs []I) (*Result[O], error) {
	parts := j.partition(inputs)
	outs := make([][]O, len(parts))
	var failed, next atomic.Int64
	tctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var wg sync.WaitGroup
	for w := 0; w < j.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := j.cfg.Watchdog.Worker(fmt.Sprintf("%s/task-%d", j.name(), w))
			defer wk.Done()
			for p := int(next.Add(1) - 1); p < len(parts); p = int(next.Add(1) - 1) {
				var err error
				if outs[p], err = j.runPartition(tctx, wk, parts[p], &failed); err != nil {
					cancel(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(tctx); err != nil {
		return nil, err
	}
	// Every successful call yields one output, so the failed inputs are the
	// rest.
	res := &Result[O]{}
	for _, o := range outs {
		res.Outputs = append(res.Outputs, o...)
	}
	res.Counters = Counters{
		Inputs:  int64(len(inputs)),
		Outputs: int64(len(res.Outputs)),
		Failed:  int64(len(inputs) - len(res.Outputs)),
	}
	return res, nil
}

// runPartition is the task loop: it calls fn on each input of one
// partition, in order, and keeps the outputs of the calls that succeed.
// A call runs inline, or under guard.BoundWork — on a goroutine that a
// deadline or the watchdog may abandon — when the job bounds its calls.
// A failed input is dropped while failed stays within MaxFailed, and
// aborts the loop past that.
func (j *Job[I, O]) runPartition(ctx context.Context, wk *guard.Worker, part []I, failed *atomic.Int64) ([]O, error) {
	bounded := j.cfg.TaskTimeout > 0 || wk != nil
	outs := make([]O, 0, len(part))
	for _, in := range part {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		var out O
		var err error
		if bounded {
			out, err = guard.BoundWork(ctx, wk, j.cfg.TaskTimeout, func() (O, error) { return j.call(in) })
		} else {
			out, err = j.call(in)
		}
		if err == nil {
			outs = append(outs, out)
			continue
		}
		if cerr := context.Cause(ctx); cerr != nil {
			return nil, cerr // the job was cancelled; this input did not fail
		}
		if failed.Add(1) <= int64(j.cfg.MaxFailed) {
			continue
		}
		return nil, fmt.Errorf("%s: input %q: %w", j.name(), j.key(in), err)
	}
	return outs, nil
}

// call runs fn on one input behind the task fault point keyed by the
// input's key, turning a panic into that input's error.
func (j *Job[I, O]) call(in I) (out O, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("task panic: %v", r)
		}
	}()
	if err := faultCheck(j.key, in); err != nil {
		return out, err
	}
	return j.fn(in)
}

func (j *Job[I, O]) name() string {
	if j.cfg.Name != "" {
		return j.cfg.Name
	}
	return "mapreduce"
}
