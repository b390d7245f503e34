// Package mapreduce implements the MapReduce engine BAYWATCH's two jobs run
// on: beaconing detection and the rescale/merge of Sect. VII-B. It keeps
// what the paper's Hadoop implementation needs from the model — modular
// jobs, hash partitioning by H(s,d) to control how many reduce tasks run,
// counters, and job chaining — with goroutine worker pools (Run) or exec'd
// worker processes (RunExec) standing in for cluster nodes. Both run the
// same map loop and the same reduce loop.
//
// The engine is generic over input, intermediate and output types:
//
//	job := mapreduce.NewJob[Line, string, int, Pair](
//	        mapreduce.JobConfig{Mappers: 8, PartitionBits: 5},
//	        mapFn, reduceFn)
//	out, err := job.Run(ctx, inputs)
//
// Map tasks consume the input in parallel and emit key/value pairs; pairs
// are hash-partitioned, grouped per key, and handed to parallel reduce
// tasks. Like Hadoop, a reduce call sees every value of one key.
package mapreduce

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/guard"
)

// Emitter receives key/value pairs from a map task.
type Emitter[K comparable, V any] func(key K, value V)

// MapFunc transforms one input record into zero or more key/value pairs.
type MapFunc[I any, K comparable, V any] func(input I, emit Emitter[K, V]) error

// ReduceFunc folds all values of one key into zero or more outputs.
type ReduceFunc[K comparable, V any, O any] func(key K, values []V, emit func(O)) error

// JobConfig controls parallelism, partitioning and the per-task failure
// bounds.
type JobConfig struct {
	// Name appears in error messages and watchdog worker names.
	Name string
	// Mappers is the number of parallel map workers; defaults to
	// GOMAXPROCS.
	Mappers int
	// Reducers is the number of parallel reduce workers; defaults to
	// GOMAXPROCS.
	Reducers int
	// PartitionBits controls the number of shuffle partitions
	// (2^PartitionBits), mirroring the paper's hash function H: "a 5-bit
	// hash results in 32 REDUCE tasks". Defaults to 5.
	PartitionBits int
	// MaxFailedInputs is the poisoned-record budget: map inputs whose call
	// fails (error, panic, timeout or stall) are skipped and counted
	// (Counters.FailedInputs) as long as their total stays within the
	// budget; one more aborts the job. 0 (the default) aborts on the first
	// failure.
	MaxFailedInputs int
	// MaxFailedKeys is the reduce-side failure budget: reduce keys whose
	// call fails (including by timeout or stall) are dropped and counted
	// (Counters.FailedKeys) as long as their total stays within the
	// budget; one more aborts the job. 0 aborts on the first reduce
	// failure.
	MaxFailedKeys int
	// TaskTimeout bounds each map-input and reduce-key call in wall-clock
	// time. A timed-out call is a failure charged against MaxFailedInputs
	// or MaxFailedKeys; the overrunning call is abandoned to drain on its
	// own, not killed. 0 disables.
	TaskTimeout time.Duration
	// Watchdog, when non-nil, receives per-worker progress heartbeats;
	// a worker that stops progressing between tasks has its current task
	// cancelled (a failure, like a timeout). The engine registers and
	// deregisters its workers itself.
	//
	// Exec'd workers (RunExec) apply neither TaskTimeout nor Watchdog:
	// their liveness is the coordinator's heartbeat.
	Watchdog *guard.Watchdog
}

func (c JobConfig) withDefaults() JobConfig {
	if c.Mappers <= 0 {
		c.Mappers = runtime.GOMAXPROCS(0)
	}
	if c.Reducers <= 0 {
		c.Reducers = runtime.GOMAXPROCS(0)
	}
	if c.PartitionBits <= 0 {
		c.PartitionBits = 5
	}
	if c.PartitionBits > 16 {
		c.PartitionBits = 16
	}
	return c
}

// keyHash is the partition hash: FNV-1a of the key's %v form.
func keyHash(key any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", key)
	return h.Sum64()
}

// Job is a configured MapReduce job. Create it with NewJob and execute it
// with Run; a Job is immutable and can be Run repeatedly.
type Job[I any, K comparable, V any, O any] struct {
	cfg    JobConfig
	mapFn  MapFunc[I, K, V]
	reduce ReduceFunc[K, V, O]
}

// NewJob builds a job from a map and a reduce function.
func NewJob[I any, K comparable, V any, O any](
	cfg JobConfig,
	mapFn MapFunc[I, K, V],
	reduceFn ReduceFunc[K, V, O],
) *Job[I, K, V, O] {
	return &Job[I, K, V, O]{cfg: cfg.withDefaults(), mapFn: mapFn, reduce: reduceFn}
}

// Counters reports the volume statistics of one run.
type Counters struct {
	// InputRecords is the number of inputs consumed by map tasks.
	InputRecords int64
	// MapOutputPairs is the number of key/value pairs emitted by map
	// tasks and carried across the shuffle.
	MapOutputPairs int64
	// DistinctKeys is the number of distinct keys reduced.
	DistinctKeys int64
	// OutputRecords is the number of outputs emitted by reduce tasks.
	OutputRecords int64
	// FailedInputs is the number of map inputs skipped as poisoned
	// (bounded by JobConfig.MaxFailedInputs).
	FailedInputs int64
	// FailedKeys is the number of reduce keys dropped after their call
	// failed (bounded by JobConfig.MaxFailedKeys).
	FailedKeys int64
	// CorruptSpills is the number of spill files that failed checksum
	// validation during a RunExec shuffle and were quarantined.
	CorruptSpills int64
	// ShardReruns is the number of map tasks RunExec re-executed to
	// regenerate quarantined spill files (at most one rerun per task).
	ShardReruns int64
}

// Result bundles a run's outputs and counters.
type Result[O any] struct {
	Outputs  []O
	Counters Counters
}

// Run executes the job over the inputs in-process. Map worker w maps
// inputs w, w+Mappers, ... (see share). Outputs are ordered by partition;
// within a partition, keys come in order of first emission, taking every
// key of worker 0 first, then the new keys of worker 1, and so on, and
// each key's outputs keep the order its reduce call emitted them in.
// RunExec returns the same order. Run aborts early when ctx is cancelled
// or a failure exceeds its budget.
func (j *Job[I, K, V, O]) Run(ctx context.Context, inputs []I) (*Result[O], error) {
	nParts := j.partitions()
	var failedInputs, failedKeys atomic.Int64

	shards := make([]*mapShard[K, V], j.cfg.Mappers)
	if err := j.runTasks(ctx, "map", j.cfg.Mappers, j.cfg.Mappers, func(e taskEnv, w int) error {
		shards[w] = newMapShard[K, V](nParts)
		return j.mapShare(e, w, j.share(inputs, w), shards[w], &failedInputs)
	}); err != nil {
		return nil, err
	}

	// Shuffle: partition p merges every shard's group p in worker order,
	// the order a RunExec reduce task replays the map tasks' spill files.
	counters := Counters{FailedInputs: failedInputs.Load()}
	for _, s := range shards {
		counters.InputRecords += s.inputs
		counters.MapOutputPairs += s.pairs
	}
	parts := make([]group[K, V], nParts)
	for p := range parts {
		for _, s := range shards {
			g := &s.parts[p]
			for _, k := range g.order {
				parts[p].merge(k, g.vals[k])
			}
		}
		counters.DistinctKeys += int64(len(parts[p].order))
	}

	partOutputs := make([][]O, nParts)
	if err := j.runTasks(ctx, "reduce", j.cfg.Reducers, nParts, func(e taskEnv, p int) (err error) {
		partOutputs[p], err = j.reduceGroup(e, &parts[p], &failedKeys)
		return err
	}); err != nil {
		return nil, err
	}
	counters.FailedKeys = failedKeys.Load()
	res := &Result[O]{Counters: counters}
	for _, outs := range partOutputs {
		res.Outputs = append(res.Outputs, outs...)
	}
	res.Counters.OutputRecords = int64(len(res.Outputs))
	return res, nil
}

// runTasks runs task(e, t) for every t in [0, n) on the given number of
// worker goroutines, each registered with the job's watchdog as
// <name>/<phase>-<worker>. The first failure cancels the other tasks and
// is returned; so is ctx's cancellation.
func (j *Job[I, K, V, O]) runTasks(ctx context.Context, phase string, workers, n int, task func(e taskEnv, t int) error) error {
	tctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := j.cfg.Watchdog.Worker(fmt.Sprintf("%s/%s-%d", j.name(), phase, w))
			defer wk.Done()
			e := taskEnv{ctx: tctx, timeout: j.cfg.TaskTimeout, wk: wk}
			for t := int(next.Add(1) - 1); t < n; t = int(next.Add(1) - 1) {
				if err := task(e, t); err != nil {
					cancel(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return context.Cause(tctx)
}

// taskEnv is what the map and reduce loops need from the worker running
// them: the job's cancellation and the bounds on each call. An exec'd
// worker passes the zero value: nothing cancels it but the coordinator
// killing its process, and it runs every call inline.
type taskEnv struct {
	ctx     context.Context // nil in an exec'd worker
	timeout time.Duration
	wk      *guard.Worker
}

// err returns the job's cancellation cause, or nil while the job runs.
func (e taskEnv) err() error {
	if e.ctx == nil {
		return nil
	}
	return context.Cause(e.ctx)
}

// bounded reports whether calls run under guard.BoundWork, on a goroutine
// that a deadline or the watchdog may abandon.
func (e taskEnv) bounded() bool { return e.timeout > 0 || e.wk != nil }

// callTask runs fn inline, or under guard.BoundWork when e is bounded. fn
// must communicate only through its return values.
func callTask[T any](e taskEnv, fn func() (T, error)) (T, error) {
	if !e.bounded() {
		return fn()
	}
	return guard.BoundWork(e.ctx, e.wk, e.timeout, fn)
}

// group holds one partition's values per key, with its keys in order of
// first emission. The zero value is empty and ready to use.
type group[K comparable, V any] struct {
	vals  map[K][]V
	order []K
}

// add appends one value to key k.
func (g *group[K, V]) add(k K, v V) {
	if g.vals == nil {
		g.vals = make(map[K][]V)
	}
	vs, seen := g.vals[k]
	if !seen {
		g.order = append(g.order, k)
	}
	g.vals[k] = append(vs, v)
}

// merge appends vs to key k's values. A key new to g adopts vs itself, so
// the caller must not use vs afterwards.
func (g *group[K, V]) merge(k K, vs []V) {
	if g.vals == nil {
		g.vals = make(map[K][]V)
	}
	cur, seen := g.vals[k]
	if !seen {
		g.order = append(g.order, k)
		g.vals[k] = vs
		return
	}
	g.vals[k] = append(cur, vs...)
}

// mapShard is one map worker's output: one group per partition.
type mapShard[K comparable, V any] struct {
	parts  []group[K, V]
	inputs int64
	pairs  int64
}

func newMapShard[K comparable, V any](nParts int) *mapShard[K, V] {
	return &mapShard[K, V]{parts: make([]group[K, V], nParts)}
}

// emit routes one pair to its partition's group.
func (s *mapShard[K, V]) emit(k K, v V) {
	s.parts[keyHash(k)%uint64(len(s.parts))].add(k, v)
	s.pairs++
}

// share returns map worker w's inputs: global indices w, w+Mappers, ...
// Run maps it on worker w, and RunExec ships it as map task w's input
// file.
func (j *Job[I, K, V, O]) share(inputs []I, w int) []I {
	s := make([]I, 0, (len(inputs)-w+j.cfg.Mappers-1)/j.cfg.Mappers)
	for i := w; i < len(inputs); i += j.cfg.Mappers {
		s = append(s, inputs[i])
	}
	return s
}

// mapShare is the one map loop: it maps worker w's share of the inputs
// into s. Run calls it once per map worker, an exec'd worker once per map
// task. A failed input is skipped while failed stays within
// MaxFailedInputs, and aborts the loop past that.
//
// With a failure budget or bounded calls, an input's pairs are staged and
// reach s only once its call succeeds, so a skipped, timed-out or
// abandoned call leaves nothing behind. Without either, any failure aborts
// the job, so the map function emits straight into s.
func (j *Job[I, K, V, O]) mapShare(e taskEnv, w int, share []I, s *mapShard[K, V], failed *atomic.Int64) error {
	type pair struct {
		key   K
		value V
	}
	// An inline call reuses one staging buffer across inputs; a bounded
	// call allocates its own, since an abandoned call keeps appending to
	// it while the loop moves on.
	var buf []pair
	stage := func(in I) ([]pair, error) {
		if !e.bounded() {
			buf = buf[:0]
			err := j.runMap(in, func(k K, v V) { buf = append(buf, pair{k, v}) })
			return buf, err
		}
		return callTask(e, func() ([]pair, error) {
			var local []pair
			err := j.runMap(in, func(k K, v V) { local = append(local, pair{k, v}) })
			return local, err
		})
	}
	staged := j.cfg.MaxFailedInputs > 0 || e.bounded()
	emit := s.emit
	for i, in := range share {
		if err := e.err(); err != nil {
			return err
		}
		s.inputs++
		var err error
		if staged {
			var pairs []pair
			if pairs, err = stage(in); err == nil {
				for _, p := range pairs {
					emit(p.key, p.value)
				}
			}
		} else {
			err = j.runMap(in, emit)
		}
		if err == nil {
			continue
		}
		if cerr := e.err(); cerr != nil {
			return cerr // the job was cancelled; this input did not fail
		}
		if failed.Add(1) <= int64(j.cfg.MaxFailedInputs) {
			continue
		}
		return fmt.Errorf("%s: map input %d: %w", j.name(), w+i*j.cfg.Mappers, err)
	}
	return nil
}

// reduceGroup is the one reduce loop: it reduces one partition's keys in
// first-emission order. Run calls it once per partition, an exec'd worker
// once per reduce task. A key's outputs are kept only once its call
// succeeds, so a failed, timed-out or abandoned key leaves nothing behind.
// A failed key is dropped while failed stays within MaxFailedKeys, and
// aborts the loop past that.
func (j *Job[I, K, V, O]) reduceGroup(e taskEnv, g *group[K, V], failed *atomic.Int64) ([]O, error) {
	var outs []O
	for _, k := range g.order {
		if err := e.err(); err != nil {
			return nil, err
		}
		vs := g.vals[k]
		kouts, err := callTask(e, func() ([]O, error) {
			var local []O
			err := j.runReduce(k, vs, func(o O) { local = append(local, o) })
			return local, err
		})
		if err == nil {
			outs = append(outs, kouts...)
			continue
		}
		if cerr := e.err(); cerr != nil {
			return nil, cerr // the job was cancelled; this key did not fail
		}
		if failed.Add(1) <= int64(j.cfg.MaxFailedKeys) {
			continue
		}
		return nil, fmt.Errorf("%s: reduce key %v: %w", j.name(), k, err)
	}
	return outs, nil
}

// runMap calls the map function on one input behind the map-task fault
// point, turning a panic into that input's error.
func (j *Job[I, K, V, O]) runMap(in I, emit Emitter[K, V]) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("map panic: %v", r)
		}
	}()
	if err := faultCheck(faultinject.PointMapreduceMapTask); err != nil {
		return err
	}
	return j.mapFn(in, emit)
}

// runReduce calls the reduce function on one key behind the reduce-task
// fault point, turning a panic into that key's error.
func (j *Job[I, K, V, O]) runReduce(k K, vs []V, emit func(O)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("reduce panic: %v", r)
		}
	}()
	if err := faultCheck(faultinject.PointMapreduceReduceTask); err != nil {
		return err
	}
	return j.reduce(k, vs, emit)
}

func (j *Job[I, K, V, O]) partitions() int { return 1 << j.cfg.PartitionBits }

func (j *Job[I, K, V, O]) name() string {
	if j.cfg.Name != "" {
		return j.cfg.Name
	}
	return "mapreduce"
}
