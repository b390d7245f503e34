package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"baywatch/internal/mrx"
)

// Multi-process execution: the typed bridge between the generic job and
// the untyped internal/mrx coordinator. RegisterExec names a job and
// teaches worker processes to rebuild it from an opaque parameter blob;
// RunExec writes each non-empty partition as one task's input file, drives
// mrx.Run, and reassembles a Result that is bit-identical to Run's,
// because a worker runs Run's own partition loop over the partition and
// writes its outputs as the task's output file. Outputs are concatenated
// in partition order, as in Run.
//
// Semantics that intentionally differ from the in-process run: a worker
// checks the MaxFailed budget against its own task only, and RunExec
// checks the job's total once every task is done; TaskTimeout/Watchdog
// are not applied inside workers — worker liveness is the coordinator's
// job (heartbeats and the process-level watchdog in mrx), which also
// covers hangs the in-process watchdog would catch.

func init() {
	// Arm this package's fault seam inside exec'd workers whenever an
	// env-transported schedule is installed, so worker-death tests can
	// crash a worker at the task point.
	mrx.RegisterFaultSink(SetFaultHook)
}

// ExecConfig enables and tunes multi-process execution. The zero value
// disables it (Enabled() == false): jobs then run in-process.
type ExecConfig struct {
	// Workers > 0 runs the job across that many exec'd worker processes.
	Workers int
	// ScratchDir holds task inputs, outputs, and the recovery journal. A
	// coordinator restarted with the same ScratchDir resumes from its
	// journal. Empty means a fresh temporary directory (no resume across
	// restarts).
	ScratchDir string
	// Command is the worker argv; empty means this binary re-exec'd.
	Command []string
	// Env is extra environment for worker processes (appended after the
	// inherited environment).
	Env []string
	// DisableFallback makes ErrExecUnavailable fatal instead of
	// degrading to the in-process engine.
	DisableFallback bool
	// HeartbeatEvery, StallAfter, and MaxTaskRetries pass through to
	// mrx.Options (zero values take the mrx defaults).
	HeartbeatEvery time.Duration
	StallAfter     time.Duration
	MaxTaskRetries int
	// Logf, when non-nil, receives coordinator progress notes.
	Logf func(format string, args ...any)
}

// Enabled reports whether multi-process execution is requested.
func (c ExecConfig) Enabled() bool { return c.Workers > 0 }

// RegisterExec registers a named distributable job: build reconstructs
// the job from its parameter blob inside worker processes. Call it from
// an init function (or before MaybeWorker in TestMain) so the registry is
// identical in the coordinator and in every exec'd worker. The job's
// input and output types must be gob-encodable.
func RegisterExec[I, O any](name string, build func(params []byte) (*Job[I, O], error)) {
	mrx.RegisterJob(name, func(params []byte) (mrx.Runner, error) {
		j, err := build(params)
		if err != nil {
			return nil, err
		}
		return j.runTask, nil
	})
}

// RunExec executes the job across exec'd worker processes (see the
// package comment in internal/mrx for the failure model). name must have
// been registered with RegisterExec using a build function that
// reconstructs this same job from params. Falls back to the in-process
// Run when exec is unavailable, unless ec.DisableFallback is set.
func (j *Job[I, O]) RunExec(ctx context.Context, name string, params []byte, ec ExecConfig, inputs []I) (*Result[O], error) {
	if !ec.Enabled() {
		return j.Run(ctx, inputs)
	}
	var parts [][]I
	for _, part := range j.partition(inputs) {
		if len(part) > 0 {
			parts = append(parts, part)
		}
	}
	if len(parts) == 0 {
		return j.Run(ctx, inputs) // nothing to ship
	}
	scratch := ec.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "baywatch-mrx-")
		if err != nil {
			return nil, fmt.Errorf("%s: scratch dir: %w", j.name(), err)
		}
		scratch = dir
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("%s: scratch dir: %w", j.name(), err)
	}

	// Task t's input is the t-th non-empty partition.
	paths := make([]string, len(parts))
	for t, part := range parts {
		paths[t] = filepath.Join(scratch, fmt.Sprintf("input-%03d.gob", t))
		if err := writeRecords(paths[t], part); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), err)
		}
	}

	res, err := mrx.Run(ctx, mrx.Options{
		Job:            name,
		Params:         params,
		ScratchDir:     scratch,
		Inputs:         paths,
		Workers:        ec.Workers,
		Command:        ec.Command,
		Env:            ec.Env,
		HeartbeatEvery: ec.HeartbeatEvery,
		StallAfter:     ec.StallAfter,
		MaxTaskRetries: ec.MaxTaskRetries,
		Logf:           ec.Logf,
	})
	if err != nil {
		if errors.Is(err, mrx.ErrExecUnavailable) && !ec.DisableFallback {
			if ec.Logf != nil {
				ec.Logf("%s: %v; degrading to in-process execution", j.name(), err)
			}
			os.RemoveAll(scratch)
			return j.Run(ctx, inputs)
		}
		return nil, fmt.Errorf("%s: distributed run: %w", j.name(), err)
	}

	outs := make([][]O, len(res.Outputs))
	for t, path := range res.Outputs {
		if outs[t], err = readRecords[O](path); err != nil {
			return nil, fmt.Errorf("%s: task %d output: %w", j.name(), t, err)
		}
	}
	out := collect(outs, len(inputs))
	if out.Counters.Failed > int64(j.cfg.MaxFailed) {
		return nil, fmt.Errorf("%s: %d inputs failed, over the budget of %d", j.name(), out.Counters.Failed, j.cfg.MaxFailed)
	}
	// The run is complete; its scratch must not survive to be mistaken
	// for resumable state by the next job pointed at the same directory.
	os.RemoveAll(scratch)
	return out, nil
}

// runTask is the worker side of one task: it runs the partition loop Run
// uses over the task's input file and writes the outputs to its output
// file.
func (j *Job[I, O]) runTask(input, output string) error {
	part, err := readRecords[I](input)
	if err != nil {
		return fmt.Errorf("%s: task input: %w", j.name(), err)
	}
	var failed atomic.Int64
	outs, err := j.runPartition(taskEnv{}, part, &failed)
	if err != nil {
		return err
	}
	if err := writeRecords(output, outs); err != nil {
		return fmt.Errorf("%s: %w", j.name(), err)
	}
	return nil
}
