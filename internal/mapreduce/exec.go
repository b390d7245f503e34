package mapreduce

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"baywatch/internal/mrx"
)

// Multi-process execution: the typed bridge between the generic engine
// and the untyped internal/mrx coordinator. RegisterExec names a job and
// teaches worker processes to rebuild it from an opaque parameter blob;
// RunExec shards the input, drives mrx.Run, and reassembles a Result that
// is bit-identical to the in-process engine's, because workers run Run's
// own map and reduce loops:
//
//   - map task w maps in-process map worker w's share through mapShare
//     and writes each non-empty partition group as one spill file;
//   - reduce task p replays partition p's spill files in map-task order,
//     which is the in-process shuffle's merge, and reduces through
//     reduceGroup;
//   - outputs are concatenated in partition order, as in the engine.
//
// Semantics that intentionally differ from the in-process engine:
// MaxFailedInputs/MaxFailedKeys budgets apply per task (each process
// counts its own), and TaskTimeout/Watchdog are not applied inside
// workers — worker liveness is the coordinator's job (heartbeats and the
// process-level watchdog in mrx), which also covers hangs the in-process
// watchdog would catch.

func init() {
	// Arm this package's fault seam inside exec'd workers whenever an
	// env-transported schedule is installed, so worker-death tests can
	// crash a worker at spill writes, replays, and task boundaries.
	mrx.RegisterFaultSink(SetFaultHook)
}

// ExecConfig enables and tunes multi-process execution. The zero value
// disables it (Enabled() == false): jobs then run in-process.
type ExecConfig struct {
	// Workers > 0 runs the job across that many exec'd worker processes.
	Workers int
	// ScratchDir holds input shards, spills, outputs, and the recovery
	// journal. A coordinator restarted with the same ScratchDir resumes
	// from its journal. Empty means a fresh temporary directory (no
	// resume across restarts).
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
// input, key, value, and output types must be gob-encodable.
func RegisterExec[I any, K comparable, V any, O any](name string, build func(params []byte) (*Job[I, K, V, O], error)) {
	mrx.RegisterJob(name, func(h mrx.Hello) (mrx.Runner, error) {
		j, err := build(h.Params)
		if err != nil {
			return nil, err
		}
		return &execRunner[I, K, V, O]{job: j, scratch: h.ScratchDir}, nil
	})
}

// RunExec executes the job across exec'd worker processes (see the
// package comment in internal/mrx for the failure model). name must have
// been registered with RegisterExec using a build function that
// reconstructs this same job from params. Falls back to the in-process
// Run when exec is unavailable, unless ec.DisableFallback is set.
func (j *Job[I, K, V, O]) RunExec(ctx context.Context, name string, params []byte, ec ExecConfig, inputs []I) (*Result[O], error) {
	if !ec.Enabled() {
		return j.Run(ctx, inputs)
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

	// Map task w maps in-process worker w's share.
	nParts := j.partitions()
	inDir := filepath.Join(scratch, "inputs")
	if err := os.MkdirAll(inDir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: input dir: %w", j.name(), err)
	}
	shardPaths := make([]string, j.cfg.Mappers)
	for w := 0; w < j.cfg.Mappers; w++ {
		path := filepath.Join(inDir, fmt.Sprintf("input-%03d.gob", w))
		if err := writeRecords(path, j.share(inputs, w)); err != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), err)
		}
		shardPaths[w] = path
	}

	res, err := mrx.Run(ctx, mrx.Options{
		Job:            name,
		Params:         params,
		ScratchDir:     scratch,
		Inputs:         shardPaths,
		Partitions:     nParts,
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

	out := &Result[O]{}
	for _, blob := range res.MapCounters {
		c, derr := decodeCounters(blob)
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), derr)
		}
		out.Counters.add(c)
	}
	for _, blob := range res.ReduceCounters {
		if blob == nil {
			continue
		}
		c, derr := decodeCounters(blob)
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", j.name(), derr)
		}
		out.Counters.add(c)
	}
	for p := 0; p < nParts; p++ {
		if res.ReduceOutputs[p] == "" {
			continue
		}
		recs, rerr := readRecords[O](res.ReduceOutputs[p])
		if rerr != nil {
			return nil, fmt.Errorf("%s: partition %d output: %w", j.name(), p, rerr)
		}
		out.Outputs = append(out.Outputs, recs...)
	}
	out.Counters.OutputRecords = int64(len(out.Outputs))
	out.Counters.CorruptSpills = int64(res.Stats.CorruptSpills)
	out.Counters.ShardReruns = int64(res.Stats.ShardReruns)
	// The run is complete; its scratch must not survive to be mistaken
	// for resumable state by the next job pointed at the same directory.
	os.RemoveAll(scratch)
	return out, nil
}

// add accumulates the counters one task reports.
func (c *Counters) add(o Counters) {
	c.InputRecords += o.InputRecords
	c.MapOutputPairs += o.MapOutputPairs
	c.DistinctKeys += o.DistinctKeys
	c.FailedInputs += o.FailedInputs
	c.FailedKeys += o.FailedKeys
}

// execRunner executes this job's tasks inside a worker process.
type execRunner[I any, K comparable, V any, O any] struct {
	job     *Job[I, K, V, O]
	scratch string
}

// RunTask implements mrx.Runner.
func (r *execRunner[I, K, V, O]) RunTask(spec mrx.TaskSpec) (mrx.TaskResult, error) {
	switch spec.Kind {
	case mrx.TaskMap:
		return r.mapTask(spec)
	case mrx.TaskReduce:
		return r.reduceTask(spec)
	default:
		return mrx.TaskResult{}, &mrx.FinalError{Err: fmt.Errorf("mapreduce: unknown task kind %v", spec.Kind)}
	}
}

// mapTask runs one map task through the map loop Run uses and writes one
// spill file per non-empty partition: the same groups, in the same key
// order, that in-process map worker Index would hand the shuffle.
func (r *execRunner[I, K, V, O]) mapTask(spec mrx.TaskSpec) (mrx.TaskResult, error) {
	j := r.job
	share, err := readRecords[I](spec.Inputs[0])
	if err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: map shard %d input: %w", j.name(), spec.Index, err)
	}
	s := newMapShard[K, V](j.partitions())
	var failed atomic.Int64
	if err := j.mapShare(taskEnv{}, spec.Index, share, s, &failed); err != nil {
		return mrx.TaskResult{}, err
	}

	dir := filepath.Join(r.scratch, fmt.Sprintf("map-%03d", spec.Index))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: map shard %d: %w", j.name(), spec.Index, err)
	}
	var refs []mrx.SpillRef
	for p := range s.parts {
		if len(s.parts[p].order) == 0 {
			continue
		}
		path := filepath.Join(dir, fmt.Sprintf("spill-w%d-p%d.gob", spec.Index, p))
		if err := writeSpillFile(path, &s.parts[p]); err != nil {
			return mrx.TaskResult{}, fmt.Errorf("%s: %w", j.name(), err)
		}
		refs = append(refs, mrx.SpillRef{Partition: p, Path: path})
	}
	blob, err := encodeCounters(Counters{InputRecords: s.inputs, MapOutputPairs: s.pairs, FailedInputs: failed.Load()})
	if err != nil {
		return mrx.TaskResult{}, err
	}
	return mrx.TaskResult{Spills: refs, Counters: blob}, nil
}

// reduceTask reduces one partition: replay the spill files in map-task
// order (reporting a corrupt file to the coordinator for quarantine and
// producer re-execution), run the reduce loop Run uses, and write the
// partition's output file.
func (r *execRunner[I, K, V, O]) reduceTask(spec mrx.TaskSpec) (mrx.TaskResult, error) {
	j := r.job
	var g group[K, V]
	for _, path := range spec.Inputs {
		if err := replaySpill(path, &g); err != nil {
			if errors.Is(err, ErrSpillCorrupt) {
				return mrx.TaskResult{}, &mrx.CorruptInputError{Path: path, Err: err}
			}
			return mrx.TaskResult{}, fmt.Errorf("%s: reduce partition %d: %w", j.name(), spec.Index, err)
		}
	}
	var failed atomic.Int64
	outs, err := j.reduceGroup(taskEnv{}, &g, &failed)
	if err != nil {
		return mrx.TaskResult{}, err
	}
	if err := writeRecords(spec.Output, outs); err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: %w", j.name(), err)
	}
	blob, err := encodeCounters(Counters{DistinctKeys: int64(len(g.order)), FailedKeys: failed.Load()})
	if err != nil {
		return mrx.TaskResult{}, err
	}
	return mrx.TaskResult{Counters: blob}, nil
}

func encodeCounters(c Counters) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("mapreduce: encode counters: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeCounters(blob []byte) (Counters, error) {
	var c Counters
	if len(blob) == 0 {
		return c, nil
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&c); err != nil {
		return c, fmt.Errorf("mapreduce: decode counters: %w", err)
	}
	return c, nil
}
