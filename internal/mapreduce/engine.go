// Package mapreduce implements the in-process parallel MapReduce engine
// BAYWATCH's pipeline phases run on. It reproduces the programming model of
// the paper's Hadoop implementation — modular jobs, hash partitioning to
// control reducer fan-out, combiners, counters, and job chaining — with
// goroutine worker pools standing in for cluster nodes.
//
// The engine is generic over input, intermediate and output types:
//
//	job := mapreduce.NewJob[Line, string, int, Pair](
//	        mapreduce.JobConfig{Mappers: 8, Partitions: 32},
//	        mapFn, reduceFn)
//	out, err := job.Run(ctx, inputs)
//
// Map tasks consume the input in parallel and emit key/value pairs; pairs
// are hash-partitioned, grouped per key, and handed to parallel reduce
// tasks. Like Hadoop, a reduce call sees every value of one key.
package mapreduce

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/guard"
)

// Emitter receives key/value pairs from a map task.
type Emitter[K comparable, V any] func(key K, value V)

// MapFunc transforms one input record into zero or more key/value pairs.
type MapFunc[I any, K comparable, V any] func(input I, emit Emitter[K, V]) error

// ReduceFunc folds all values of one key into zero or more outputs.
type ReduceFunc[K comparable, V any, O any] func(key K, values []V, emit func(O)) error

// CombineFunc locally pre-aggregates the values of one key on the map side
// before the shuffle, cutting shuffle volume (Hadoop's combiner).
type CombineFunc[K comparable, V any] func(key K, values []V) []V

// JobConfig controls parallelism and partitioning.
type JobConfig struct {
	// Name appears in error messages and counters.
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
	// SpillDir enables map-side disk spilling: when set, each map worker
	// flushes its buffered groups to gob files under a temporary directory
	// inside SpillDir whenever the buffer exceeds SpillThreshold pairs.
	// Keys and values must be gob-encodable. Empty means fully in-memory.
	SpillDir string
	// SpillThreshold is the per-worker buffered pair count that triggers a
	// flush. Defaults to 1<<20.
	SpillThreshold int
	// MaxRetries is the number of times a failing map input or reduce key
	// is retried before the failure is final (emissions from failed
	// attempts are discarded, so retries never duplicate output). 0 means
	// no retries.
	MaxRetries int
	// MaxFailedInputs is the poisoned-record budget: map inputs that still
	// fail after MaxRetries are skipped and counted (Counters.FailedInputs)
	// as long as their total stays within the budget; one more aborts the
	// job. 0 (the default) aborts on the first final failure.
	MaxFailedInputs int
	// MaxFailedKeys is the reduce-side failure budget: reduce keys whose
	// final attempt fails (including by timeout or stall) are dropped and
	// counted (Counters.FailedKeys) as long as their total stays within
	// the budget; one more aborts the job. 0 aborts on the first final
	// reduce failure.
	MaxFailedKeys int
	// Backoff is the base delay before a task retry; successive retries
	// back off exponentially (doubling per attempt, capped at MaxBackoff)
	// with deterministic jitter in [delay/2, delay), so a transiently
	// failing input is not hammered. 0 retries immediately.
	Backoff time.Duration
	// MaxBackoff caps the per-retry delay; defaults to 16*Backoff.
	MaxBackoff time.Duration
	// TaskTimeout bounds each map-input and reduce-key call in wall-clock
	// time. A timed-out task is a final failure (never retried — retrying
	// a hang doubles the damage) charged against MaxFailedInputs or
	// MaxFailedKeys. The overrunning call is abandoned to drain on its
	// own, not killed. 0 disables.
	TaskTimeout time.Duration
	// Watchdog, when non-nil, receives per-worker progress heartbeats;
	// a worker that stops progressing between tasks has its current task
	// cancelled (a final failure, like a timeout). The engine registers
	// and deregisters its workers itself.
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
	if c.SpillThreshold <= 0 {
		c.SpillThreshold = 1 << 20
	}
	if c.MaxBackoff <= 0 && c.Backoff > 0 {
		c.MaxBackoff = 16 * c.Backoff
	}
	return c
}

// guarded reports whether tasks need the bounded-execution path (a
// per-task goroutine that deadlines and watchdog cancellation can
// abandon).
func (c JobConfig) guarded() bool { return c.TaskTimeout > 0 || c.Watchdog != nil }

// retryDelay computes the capped exponential backoff before retry
// `attempt` (1-based) of the named task. The jitter is deterministic —
// derived from the job name, task id and attempt — so runs replay
// identically.
func retryDelay(cfg JobConfig, name string, task, attempt int) time.Duration {
	if cfg.Backoff <= 0 {
		return 0
	}
	d := cfg.Backoff
	for i := 1; i < attempt && d < cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > cfg.MaxBackoff {
		d = cfg.MaxBackoff
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", name, task, attempt)
	frac := float64(h.Sum64()%1024) / 1024 // deterministic in [0, 1)
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepRetry waits the backoff delay, returning false if ctx is
// cancelled first.
func sleepRetry(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// finalFailure reports errors that must not be retried: deadline
// overruns, watchdog stalls, and context cancellation (retrying a hang
// doubles the damage; retrying a cancelled task fights the shutdown).
func finalFailure(err error) bool {
	return errors.Is(err, guard.ErrTimeout) || errors.Is(err, guard.ErrStalled) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
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
	cfg     JobConfig
	mapFn   MapFunc[I, K, V]
	reduce  ReduceFunc[K, V, O]
	combine CombineFunc[K, V]
}

// NewJob builds a job from a map and a reduce function.
func NewJob[I any, K comparable, V any, O any](
	cfg JobConfig,
	mapFn MapFunc[I, K, V],
	reduceFn ReduceFunc[K, V, O],
) *Job[I, K, V, O] {
	return &Job[I, K, V, O]{cfg: cfg.withDefaults(), mapFn: mapFn, reduce: reduceFn}
}

// WithCombiner returns a copy of the job that applies combine on the map
// side before the shuffle.
func (j *Job[I, K, V, O]) WithCombiner(combine CombineFunc[K, V]) *Job[I, K, V, O] {
	cp := *j
	cp.combine = combine
	return &cp
}

// Counters reports the volume statistics of one run.
type Counters struct {
	// InputRecords is the number of inputs consumed by map tasks.
	InputRecords int64
	// MapOutputPairs is the number of key/value pairs emitted by map tasks
	// (before combining).
	MapOutputPairs int64
	// ShufflePairs is the number of pairs crossing the shuffle (after
	// combining).
	ShufflePairs int64
	// DistinctKeys is the number of distinct keys reduced.
	DistinctKeys int64
	// OutputRecords is the number of outputs emitted by reduce tasks.
	OutputRecords int64
	// Retries is the number of task retries performed (map and reduce).
	Retries int64
	// FailedInputs is the number of map inputs skipped as poisoned after
	// exhausting their retries (bounded by JobConfig.MaxFailedInputs).
	FailedInputs int64
	// FailedKeys is the number of reduce keys dropped after their final
	// attempt failed (bounded by JobConfig.MaxFailedKeys).
	FailedKeys int64
	// CorruptSpills is the number of spill files that failed checksum
	// validation during the shuffle and were quarantined.
	CorruptSpills int64
	// ShardReruns is the number of map shards re-executed to regenerate
	// quarantined spill files (at most one rerun per shard).
	ShardReruns int64
}

// Result bundles a run's outputs and counters.
type Result[O any] struct {
	Outputs  []O
	Counters Counters
}

// Run executes the job over the inputs. Outputs are returned in an
// unspecified but deterministic order (sorted by partition, then by key
// hash, then by key order of first emission). Run aborts early when ctx is
// cancelled or any task returns an error.
func (j *Job[I, K, V, O]) Run(ctx context.Context, inputs []I) (*Result[O], error) {
	// Strided assignment keeps the work distribution deterministic, and —
	// because sourceFor hands out a fresh iterator per call — lets the
	// shuffle re-execute a single map shard to regenerate a spill file
	// that fails validation.
	return j.run(ctx, func(w int) func() (I, int, bool) {
		i := w - j.cfg.Mappers
		return func() (I, int, bool) {
			i += j.cfg.Mappers
			if i >= len(inputs) {
				var zero I
				return zero, 0, false
			}
			return inputs[i], i, true
		}
	})
}

// run is Run's engine. sourceFor returns worker w's input fetcher: each
// call yields the next input with its global index, or ok=false when the
// worker's share is exhausted. sourceFor(w) yields the same sequence on
// every call, which lets the shuffle re-execute a map shard whose spill
// file fails validation instead of aborting the job.
func (j *Job[I, K, V, O]) run(ctx context.Context, sourceFor func(w int) func() (I, int, bool)) (*Result[O], error) {
	nParts := 1 << j.cfg.PartitionBits

	// Optional disk spill: one temp dir per run, removed on return.
	var spillRoot string
	if j.cfg.SpillDir != "" {
		dir, err := os.MkdirTemp(j.cfg.SpillDir, "mrspill-")
		if err != nil {
			return nil, fmt.Errorf("%s: spill dir: %w", j.name(), err)
		}
		spillRoot = dir
		defer os.RemoveAll(spillRoot)
	}

	// ---- map phase -------------------------------------------------------
	type mapShard struct {
		// groups accumulates values per key per partition.
		groups []map[K][]V
		// order remembers first-emission order per partition for
		// deterministic output.
		order  []([]K)
		pairs  int64
		inputs int64
		// buffered counts pairs held in memory since the last flush.
		buffered int64
		spill    *spillWriter[K, V]
	}
	shards := make([]*mapShard, j.cfg.Mappers)
	for w := range shards {
		s := &mapShard{groups: make([]map[K][]V, nParts), order: make([][]K, nParts)}
		for p := range s.groups {
			s.groups[p] = make(map[K][]V)
		}
		if spillRoot != "" {
			s.spill = newSpillWriter[K, V](spillRoot, w, nParts)
		}
		shards[w] = s
	}

	mapCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Failure accounting shared across the phases: retries for the
	// counters, failed inputs/keys against the failure budgets.
	var retriesTotal, failedTotal, failedKeysTotal atomic.Int64

	// runMap executes the map function for one input, converting panics
	// into errors so a single poisoned record cannot take down the job.
	runMap := func(in I, emit Emitter[K, V]) (err error) {
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

	// runShard executes one map shard to completion: consume sourceFor(w),
	// emit into the shard's groups, flush spills at the threshold, apply
	// the combiner. Shared by the parallel map phase and — because strided
	// sources replay identically — by the shuffle's corrupt-spill
	// recovery, which re-runs a single shard into a fresh spill directory.
	// retries and failed are the failure-accounting sinks (the recovery
	// rerun uses throwaway ones so its retries and skips are not
	// double-counted against the job's budgets).
	runShard := func(shardCtx context.Context, w int, shard *mapShard, label string, retries, failed *atomic.Int64) error {
		emit := func(key K, value V) {
			p := int(keyHash(key) % uint64(nParts))
			g := shard.groups[p]
			if _, seen := g[key]; !seen {
				shard.order[p] = append(shard.order[p], key)
			}
			g[key] = append(g[key], value)
			shard.pairs++
			shard.buffered++
		}
		applyCombiner := func() {
			if j.combine == nil {
				return
			}
			for p := range shard.groups {
				for k, vs := range shard.groups[p] {
					shard.groups[p][k] = j.combine(k, vs)
				}
			}
		}
		type stagedPair struct {
			key   K
			value V
		}
		var wk *guard.Worker
		if j.cfg.Watchdog != nil {
			wk = j.cfg.Watchdog.Worker(fmt.Sprintf("%s/%s-%d", j.name(), label, w))
			defer wk.Done()
		}
		// runTask executes the map call for one input on the staged
		// path: emissions collect into a local slice returned by
		// value, so failed, timed-out, or abandoned attempts never
		// leave partial (or racing) emissions behind. The unguarded
		// path reuses one buffer across inputs — nothing can abandon
		// the call mid-append there; the guarded path must allocate
		// per call, since an abandoned attempt keeps appending to its
		// slice while the worker moves on.
		var stagedBuf []stagedPair
		runTask := func(in I) ([]stagedPair, error) {
			if !j.cfg.guarded() {
				stagedBuf = stagedBuf[:0]
				if err := runMap(in, func(k K, v V) {
					stagedBuf = append(stagedBuf, stagedPair{key: k, value: v})
				}); err != nil {
					return nil, err
				}
				return stagedBuf, nil
			}
			call := func() ([]stagedPair, error) {
				var local []stagedPair
				if err := runMap(in, func(k K, v V) {
					local = append(local, stagedPair{key: k, value: v})
				}); err != nil {
					return nil, err
				}
				return local, nil
			}
			return guard.BoundWork(shardCtx, wk, j.cfg.TaskTimeout, call)
		}
		// Staged emission: with retries, a failure budget, or bounded
		// execution enabled, an input's pairs are merged into the
		// shard only after its map call succeeds.
		staging := j.cfg.MaxRetries > 0 || j.cfg.MaxFailedInputs > 0 || j.cfg.guarded()
		nextInput := sourceFor(w)
		for {
			if shardCtx.Err() != nil {
				return nil
			}
			in, i, ok := nextInput()
			if !ok {
				break
			}
			shard.inputs++
			var err error
			if staging {
				for attempt := 0; ; attempt++ {
					var staged []stagedPair
					staged, err = runTask(in)
					if err == nil {
						for _, sp := range staged {
							emit(sp.key, sp.value)
						}
						break
					}
					if attempt >= j.cfg.MaxRetries || finalFailure(err) {
						break
					}
					retries.Add(1)
					if !sleepRetry(shardCtx, retryDelay(j.cfg, j.name(), i, attempt+1)) {
						return nil
					}
				}
			} else {
				err = runMap(in, emit)
			}
			if err != nil {
				if shardCtx.Err() != nil {
					return nil // job-wide cancellation, not an input failure
				}
				if failedNow := failed.Add(1); failedNow <= int64(j.cfg.MaxFailedInputs) {
					continue // poisoned or overrunning record skipped, within budget
				}
				return fmt.Errorf("%s: map input %d: %w", j.name(), i, err)
			}
			if shard.spill != nil && shard.buffered >= int64(j.cfg.SpillThreshold) {
				applyCombiner()
				if err := shard.spill.flush(shard.groups, shard.order); err != nil {
					return fmt.Errorf("%s: %w", j.name(), err)
				}
				shard.buffered = 0
			}
		}
		applyCombiner()
		return nil
	}

	var wg sync.WaitGroup
	errc := make(chan error, j.cfg.Mappers+j.cfg.Reducers)
	for w := 0; w < j.cfg.Mappers; w++ {
		wg.Add(1)
		//bw:guarded map workers are joined by wg.Wait below and cancelled via mapCtx; runShard registers with the job watchdog when one is configured
		go func(w int) {
			defer wg.Done()
			if err := runShard(mapCtx, w, shards[w], "map", &retriesTotal, &failedTotal); err != nil {
				// Only the first error is ever read; errc has capacity for
				// every worker, so the default arm never actually drops.
				select {
				case errc <- err:
				default:
				}
				cancel()
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}

	var counters Counters
	for _, s := range shards {
		counters.InputRecords += s.inputs
		counters.MapOutputPairs += s.pairs
	}
	counters.Retries = retriesTotal.Load()
	counters.FailedInputs = failedTotal.Load()

	// ---- shuffle: merge map shards per partition --------------------------
	// Spill files replay first (in flush order), then each shard's
	// in-memory remainder, keeping key order deterministic.
	//
	// A spill file that fails validation is not fatal: the file is
	// quarantined (moved into SpillDir, outside the ephemeral per-run
	// root, so it survives the run for forensics) and its producing shard
	// is re-executed once into a fresh directory. Flush
	// boundaries are a pure function of input order and SpillThreshold, so
	// the rerun regenerates the same file sequence and only the corrupt
	// file's replacement is replayed; the original shard's intact files
	// and in-memory remainder are untouched. A replacement that fails
	// validation too aborts the job.
	rerunShards := make(map[int]*mapShard)
	var rerunRetries, rerunFailed atomic.Int64
	rerunShard := func(w int) (*mapShard, error) {
		if rs, ok := rerunShards[w]; ok {
			return rs, nil
		}
		rerunDir := filepath.Join(spillRoot, fmt.Sprintf("rerun-w%d", w))
		if err := os.MkdirAll(rerunDir, 0o755); err != nil {
			return nil, fmt.Errorf("%s: rerun dir: %w", j.name(), err)
		}
		rs := &mapShard{groups: make([]map[K][]V, nParts), order: make([][]K, nParts)}
		for p := range rs.groups {
			rs.groups[p] = make(map[K][]V)
		}
		rs.spill = newSpillWriter[K, V](rerunDir, w, nParts)
		counters.ShardReruns++
		if err := runShard(ctx, w, rs, "map-rerun", &rerunRetries, &rerunFailed); err != nil {
			return nil, err
		}
		rerunShards[w] = rs
		return rs, nil
	}
	partGroups := make([]map[K][]V, nParts)
	partOrder := make([][]K, nParts)
	for p := 0; p < nParts; p++ {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		partGroups[p] = make(map[K][]V)
		for w, s := range shards {
			if s.spill != nil {
				for fi, path := range s.spill.files[p] {
					err := replaySpill(path, partGroups[p], &partOrder[p])
					if err == nil {
						continue
					}
					if !errors.Is(err, ErrSpillCorrupt) {
						return nil, fmt.Errorf("%s: %w", j.name(), err)
					}
					counters.CorruptSpills++
					qpath := filepath.Join(j.cfg.SpillDir,
						filepath.Base(spillRoot)+"-"+filepath.Base(path)+".quarantined")
					if qerr := os.Rename(path, qpath); qerr != nil {
						return nil, fmt.Errorf("%s: quarantine %s: %v (after %w)", j.name(), path, qerr, err)
					}
					rs, rerr := rerunShard(w)
					if rerr != nil {
						return nil, rerr
					}
					if fi >= len(rs.spill.files[p]) {
						return nil, fmt.Errorf("%s: map shard %d rerun produced no replacement for %s (%w)",
							j.name(), w, path, err)
					}
					if rerr := replaySpill(rs.spill.files[p][fi], partGroups[p], &partOrder[p]); rerr != nil {
						return nil, fmt.Errorf("%s: map shard %d corrupted its spills again: %w", j.name(), w, rerr)
					}
				}
			}
			for _, k := range s.order[p] {
				if cur, seen := partGroups[p][k]; !seen {
					partOrder[p] = append(partOrder[p], k)
					// Adopt the shard's slice outright: shards are never
					// read again after the shuffle, so keys seen by a
					// single shard (the common case) cross without a copy.
					partGroups[p][k] = s.groups[p][k]
				} else {
					partGroups[p][k] = append(cur, s.groups[p][k]...)
				}
			}
		}
		for _, vs := range partGroups[p] {
			counters.ShufflePairs += int64(len(vs))
		}
		counters.DistinctKeys += int64(len(partGroups[p]))
	}

	// ---- reduce phase ------------------------------------------------------
	partOutputs := make([][]O, nParts)
	partCh := make(chan int)
	redCtx, redCancel := context.WithCancel(ctx)
	defer redCancel()

	// runReduce executes the reduce function for one key, converting
	// panics into errors.
	runReduce := func(k K, vs []V, emit func(O)) (err error) {
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

	var rwg sync.WaitGroup
	for w := 0; w < j.cfg.Reducers; w++ {
		rwg.Add(1)
		go func(w int) {
			defer rwg.Done()
			var wk *guard.Worker
			if j.cfg.Watchdog != nil {
				wk = j.cfg.Watchdog.Worker(fmt.Sprintf("%s/reduce-%d", j.name(), w))
				defer wk.Done()
			}
			// runKey executes the reduce call for one key, collecting its
			// outputs into a fresh local slice returned by value, so
			// failed, timed-out, or abandoned attempts never leave
			// partial (or racing) output behind.
			runKey := func(p int, k K) ([]O, error) {
				call := func() ([]O, error) {
					var local []O
					if err := runReduce(k, partGroups[p][k], func(o O) {
						local = append(local, o)
					}); err != nil {
						return nil, err
					}
					return local, nil
				}
				if !j.cfg.guarded() {
					return call()
				}
				return guard.BoundWork(redCtx, wk, j.cfg.TaskTimeout, call)
			}
			for p := range partCh {
				var outs []O
				for ki, k := range partOrder[p] {
					if redCtx.Err() != nil {
						return
					}
					var kouts []O
					var err error
					for attempt := 0; ; attempt++ {
						kouts, err = runKey(p, k)
						if err == nil || attempt >= j.cfg.MaxRetries || finalFailure(err) {
							break
						}
						retriesTotal.Add(1)
						if !sleepRetry(redCtx, retryDelay(j.cfg, j.name(), p<<16|ki, attempt+1)) {
							return
						}
					}
					if err != nil {
						if redCtx.Err() != nil {
							return // job-wide cancellation, not a key failure
						}
						if failed := failedKeysTotal.Add(1); failed <= int64(j.cfg.MaxFailedKeys) {
							continue // key dropped, within budget
						}
						// First error wins; capacity covers every worker, so
						// the default arm never actually drops.
						select {
						case errc <- fmt.Errorf("%s: reduce key %v: %w", j.name(), k, err):
						default:
						}
						redCancel()
						return
					}
					outs = append(outs, kouts...)
				}
				partOutputs[p] = outs
			}
		}(w)
	}
feed:
	for p := 0; p < nParts; p++ {
		select {
		case partCh <- p:
		case <-redCtx.Done():
			break feed
		}
	}
	close(partCh)
	rwg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}

	counters.Retries = retriesTotal.Load() // include reduce-phase retries
	counters.FailedKeys = failedKeysTotal.Load()
	res := &Result[O]{Counters: counters}
	for p := 0; p < nParts; p++ {
		res.Outputs = append(res.Outputs, partOutputs[p]...)
	}
	res.Counters.OutputRecords = int64(len(res.Outputs))
	return res, nil
}

func (j *Job[I, K, V, O]) name() string {
	if j.cfg.Name != "" {
		return j.cfg.Name
	}
	return "mapreduce"
}

// SortOutputs orders outputs with the provided less function; a
// convenience for deterministic downstream processing and golden tests.
func SortOutputs[O any](outs []O, less func(a, b O) bool) {
	sort.SliceStable(outs, func(i, k int) bool { return less(outs[i], outs[k]) })
}
