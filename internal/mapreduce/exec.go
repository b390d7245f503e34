package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/mrx"
)

// Multi-process execution: the typed bridge between the generic engine
// and the untyped internal/mrx coordinator. RegisterExec names a job and
// teaches worker processes to rebuild it from an opaque parameter blob;
// RunExec shards the input, drives mrx.Run, and reassembles a Result that
// is bit-identical to the in-process engine's:
//
//   - map task w receives exactly the inputs in-process map worker w
//     would take (the same stride), and spills every pair — threshold
//     flushes plus a final flush — so the spill-file sequence equals the
//     in-process "spills, then in-memory remainder" replay order;
//   - reduce task p replays partition p's spill files in map-task order,
//     reproducing the in-process shuffle's first-emission key order;
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

	// Shard the input exactly as Run strides it across map workers, so
	// map task w reproduces in-process worker w's share byte for byte.
	nParts := 1 << j.cfg.PartitionBits
	inDir := filepath.Join(scratch, "inputs")
	if err := os.MkdirAll(inDir, 0o755); err != nil {
		return nil, fmt.Errorf("%s: input dir: %w", j.name(), err)
	}
	shardPaths := make([]string, j.cfg.Mappers)
	for w := 0; w < j.cfg.Mappers; w++ {
		var shard []I
		for i := w; i < len(inputs); i += j.cfg.Mappers {
			shard = append(shard, inputs[i])
		}
		path := filepath.Join(inDir, fmt.Sprintf("input-%03d.gob", w))
		if err := writeRecordsFile(path, shard); err != nil {
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
		recs, rerr := readRecordsFile[O](res.ReduceOutputs[p])
		if rerr != nil {
			return nil, fmt.Errorf("%s: partition %d output: %w", j.name(), p, rerr)
		}
		out.Outputs = append(out.Outputs, recs...)
	}
	out.Counters.OutputRecords = int64(len(out.Outputs))
	out.Counters.CorruptSpills += int64(res.Stats.CorruptSpills)
	out.Counters.ShardReruns += int64(res.Stats.ShardReruns)
	// The run is complete; its scratch must not survive to be mistaken
	// for resumable state by the next job pointed at the same directory.
	os.RemoveAll(scratch)
	return out, nil
}

// add accumulates another task's counter deltas.
func (c *Counters) add(o Counters) {
	c.InputRecords += o.InputRecords
	c.MapOutputPairs += o.MapOutputPairs
	c.ShufflePairs += o.ShufflePairs
	c.DistinctKeys += o.DistinctKeys
	c.OutputRecords += o.OutputRecords
	c.Retries += o.Retries
	c.FailedInputs += o.FailedInputs
	c.FailedKeys += o.FailedKeys
	c.CorruptSpills += o.CorruptSpills
	c.ShardReruns += o.ShardReruns
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

// mapTask runs one map shard: consume the shard's input file, emit into
// per-partition groups with first-emission key order, spill at the
// threshold and once more at the end, so every pair reaches disk in the
// order the in-process shuffle would see it.
func (r *execRunner[I, K, V, O]) mapTask(spec mrx.TaskSpec) (mrx.TaskResult, error) {
	j := r.job
	cfg := j.cfg
	inputs, err := readRecordsFile[I](spec.Inputs[0])
	if err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: map shard %d input: %w", j.name(), spec.Index, err)
	}
	nParts := 1 << cfg.PartitionBits
	dir := filepath.Join(r.scratch, fmt.Sprintf("map-%03d", spec.Index))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: map shard %d: %w", j.name(), spec.Index, err)
	}
	sw := newSpillWriter[K, V](dir, spec.Index, nParts)
	groups := make([]map[K][]V, nParts)
	order := make([][]K, nParts)
	for p := range groups {
		groups[p] = make(map[K][]V)
	}

	var c Counters
	var buffered int64
	emit := func(key K, value V) {
		p := int(keyHash(key) % uint64(nParts))
		if _, seen := groups[p][key]; !seen {
			order[p] = append(order[p], key)
		}
		groups[p][key] = append(groups[p][key], value)
		c.MapOutputPairs++
		buffered++
	}
	applyCombiner := func() {
		if j.combine == nil {
			return
		}
		for p := range groups {
			for k, vs := range groups[p] {
				groups[p][k] = j.combine(k, vs)
			}
		}
	}
	runMap := func(in I, em Emitter[K, V]) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("map panic: %v", rec)
			}
		}()
		if err := faultCheck(faultinject.PointMapreduceMapTask); err != nil {
			return err
		}
		return j.mapFn(in, em)
	}

	type stagedPair struct {
		key   K
		value V
	}
	var staged []stagedPair
	for i, in := range inputs {
		c.InputRecords++
		// The shard holds in-process worker Index's stride, so input i's
		// global index (used for deterministic retry jitter, matching the
		// engine) is Index + i*Mappers.
		gi := spec.Index + i*cfg.Mappers
		var err error
		for attempt := 0; ; attempt++ {
			staged = staged[:0]
			err = runMap(in, func(k K, v V) {
				staged = append(staged, stagedPair{key: k, value: v})
			})
			if err == nil {
				for _, sp := range staged {
					emit(sp.key, sp.value)
				}
				break
			}
			if attempt >= cfg.MaxRetries || finalFailure(err) {
				break
			}
			c.Retries++
			time.Sleep(retryDelay(cfg, j.name(), gi, attempt+1))
		}
		if err != nil {
			if c.FailedInputs++; c.FailedInputs <= int64(cfg.MaxFailedInputs) {
				continue // poisoned record skipped, within the per-task budget
			}
			return mrx.TaskResult{}, fmt.Errorf("%s: map input %d: %w", j.name(), gi, err)
		}
		if buffered >= int64(cfg.SpillThreshold) {
			applyCombiner()
			if err := sw.flush(groups, order); err != nil {
				return mrx.TaskResult{}, fmt.Errorf("%s: %w", j.name(), err)
			}
			buffered = 0
		}
	}
	applyCombiner()
	if err := sw.flush(groups, order); err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: %w", j.name(), err)
	}

	var refs []mrx.SpillRef
	for p := 0; p < nParts; p++ {
		for _, path := range sw.files[p] {
			refs = append(refs, mrx.SpillRef{Partition: p, Path: path})
		}
	}
	blob, err := encodeCounters(c)
	if err != nil {
		return mrx.TaskResult{}, err
	}
	return mrx.TaskResult{Spills: refs, Counters: blob}, nil
}

// reduceTask reduces one partition: replay the spill files in map-task
// order (reporting a corrupt file to the coordinator for quarantine and
// producer re-execution), run the reduce function per key in
// first-emission order, and write the partition's output file.
func (r *execRunner[I, K, V, O]) reduceTask(spec mrx.TaskSpec) (mrx.TaskResult, error) {
	j := r.job
	cfg := j.cfg
	p := spec.Index
	group := make(map[K][]V)
	var order []K
	for _, path := range spec.Inputs {
		if err := replaySpill(path, group, &order); err != nil {
			if errors.Is(err, ErrSpillCorrupt) {
				return mrx.TaskResult{}, &mrx.CorruptInputError{Path: path, Err: err}
			}
			return mrx.TaskResult{}, fmt.Errorf("%s: reduce partition %d: %w", j.name(), p, err)
		}
	}

	var c Counters
	for _, vs := range group {
		c.ShufflePairs += int64(len(vs))
	}
	c.DistinctKeys = int64(len(group))

	runReduce := func(k K, vs []V, em func(O)) (err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("reduce panic: %v", rec)
			}
		}()
		if err := faultCheck(faultinject.PointMapreduceReduceTask); err != nil {
			return err
		}
		return j.reduce(k, vs, em)
	}

	var outs []O
	for ki, k := range order {
		var kouts []O
		var err error
		for attempt := 0; ; attempt++ {
			kouts = nil
			err = runReduce(k, group[k], func(o O) { kouts = append(kouts, o) })
			if err == nil || attempt >= cfg.MaxRetries || finalFailure(err) {
				break
			}
			c.Retries++
			time.Sleep(retryDelay(cfg, j.name(), p<<16|ki, attempt+1))
		}
		if err != nil {
			if c.FailedKeys++; c.FailedKeys <= int64(cfg.MaxFailedKeys) {
				continue // key dropped, within the per-task budget
			}
			return mrx.TaskResult{}, fmt.Errorf("%s: reduce key %v: %w", j.name(), k, err)
		}
		outs = append(outs, kouts...)
	}
	c.OutputRecords = int64(len(outs))
	if err := writeRecordsFile(spec.Output, outs); err != nil {
		return mrx.TaskResult{}, fmt.Errorf("%s: %w", j.name(), err)
	}
	blob, err := encodeCounters(c)
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

// Record files carry input shards and partition outputs across process
// boundaries with the same footer discipline as spill files: gob records
// followed by magic | count | payloadLen | crc32, so a torn write is
// detected before any record is trusted.

func writeRecordsFile[T any](path string, recs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mapreduce: create records file: %w", err)
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(f, crc)}
	enc := gob.NewEncoder(cw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return fmt.Errorf("mapreduce: encode record: %w", err)
		}
	}
	var footer [spillFooterLen]byte
	copy(footer[:], spillMagic)
	binary.LittleEndian.PutUint32(footer[4:], uint32(len(recs)))
	binary.LittleEndian.PutUint64(footer[8:], uint64(cw.n))
	binary.LittleEndian.PutUint32(footer[16:], crc.Sum32())
	if _, err := f.Write(footer[:]); err != nil {
		f.Close()
		return fmt.Errorf("mapreduce: write records footer: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mapreduce: close records file: %w", err)
	}
	return nil
}

func readRecordsFile[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: open records file: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: stat records file: %w", err)
	}
	if fi.Size() < spillFooterLen {
		return nil, fmt.Errorf("%w: %s: %d bytes, shorter than footer", ErrSpillCorrupt, path, fi.Size())
	}
	var footer [spillFooterLen]byte
	if _, err := f.ReadAt(footer[:], fi.Size()-spillFooterLen); err != nil {
		return nil, fmt.Errorf("mapreduce: read records footer: %w", err)
	}
	if string(footer[:4]) != spillMagic {
		return nil, fmt.Errorf("%w: %s: bad footer magic", ErrSpillCorrupt, path)
	}
	count := binary.LittleEndian.Uint32(footer[4:])
	payloadLen := binary.LittleEndian.Uint64(footer[8:])
	wantCRC := binary.LittleEndian.Uint32(footer[16:])
	if payloadLen != uint64(fi.Size()-spillFooterLen) {
		return nil, fmt.Errorf("%w: %s: payload length %d does not match file size %d",
			ErrSpillCorrupt, path, payloadLen, fi.Size())
	}
	crc := crc32.NewIEEE()
	tee := io.TeeReader(io.LimitReader(f, int64(payloadLen)), crc)
	dec := gob.NewDecoder(tee)
	recs := make([]T, 0, count)
	for i := uint32(0); i < count; i++ {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%w: %s: decode record %d/%d: %v", ErrSpillCorrupt, path, i, count, err)
		}
		recs = append(recs, rec)
	}
	if _, err := io.Copy(io.Discard, tee); err != nil {
		return nil, fmt.Errorf("mapreduce: drain records file: %w", err)
	}
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (got %08x, want %08x)", ErrSpillCorrupt, path, got, wantCRC)
	}
	return recs, nil
}
