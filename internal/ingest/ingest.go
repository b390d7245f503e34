package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"baywatch/internal/faultinject"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// Config parameterizes a sharded streaming ingest.
type Config struct {
	// Workers is the number of parallel scan workers (capped at the number
	// of scan units) and aggregation workers (capped at Partitions). <= 0
	// means GOMAXPROCS.
	Workers int
	// Scale is the activity-summary time scale in seconds; <= 0 means 1.
	Scale int64
	// MaxBadLines is the per-shard lenient budget: up to MaxBadLines
	// malformed lines per shard are skipped and counted. 0 is strict mode —
	// the first malformed line aborts the ingest. (Per shard, so a file
	// split four ways tolerates up to 4× the budget; a whole-file split
	// makes it a per-file budget. Documented in DESIGN.md §5f.)
	MaxBadLines int
	// MaxEventsPerPair, when > 0, truncates each pair to its earliest
	// MaxEventsPerPair events with explicit Truncation accounting, the
	// same load-shedding contract as guard.Config.MaxEventsPerPair.
	MaxEventsPerPair int
	// Partitions is the number of aggregation partitions events are
	// hash-distributed over; <= 0 means Workers.
	Partitions int
	// Correlator, when non-nil, resolves sources to device MACs through
	// the DHCP correlation (falling back to "ip:<addr>"), mirroring
	// Correlator.SourceID.
	Correlator *proxylog.Correlator
	// Symbols, when non-nil, is the symbol table to intern through —
	// reusing one across ingests (e.g. the ops loop's daily runs) keeps
	// symbol IDs warm and the steady state allocation-free. Nil means a
	// fresh table, returned in Result.Symbols.
	Symbols *SymbolTable
	// Listed, when non-nil, is filter 1's verdict on a destination (the
	// global whitelist). A pair to a listed destination is counted, not
	// summarized: it comes back in Result.Counted, with the same
	// Truncation accounting a summary would have had.
	Listed func(destination string) bool
}

// PairCount is a pair the analysis needs only the event count of: one to
// a globally whitelisted destination, which filter 1 stops before any
// time-series analysis.
type PairCount struct {
	Source, Destination string
	Events              int
}

// Truncation records one pair whose event volume exceeded
// Config.MaxEventsPerPair and was truncated to its earliest Kept events.
type Truncation struct {
	Source, Destination string
	Kept, Dropped       int
}

// ShardStats is one shard's scan accounting.
type ShardStats struct {
	Split proxylog.Split
	proxylog.ReadStats
}

// Stats aggregates scan accounting across all shards.
type Stats struct {
	// Records is the total count of well-formed records ingested.
	Records int
	// SkippedLines is the total count of malformed lines skipped in
	// lenient mode.
	SkippedLines int
	// FirstSkipped describes the first skipped line of the first (in plan
	// order) shard that skipped any, for diagnostics.
	FirstSkipped string
	// Shards holds per-shard stats, in plan order.
	Shards []ShardStats
}

// Result is the output of an ingest: per-pair activity summaries built
// directly from the stream, sorted by (Source, Destination), and the event
// counts of the pairs Config.Listed names, in no particular order.
type Result struct {
	Summaries []*timeseries.ActivitySummary
	Counted   []PairCount
	Truncated []Truncation
	Stats     Stats
	// Symbols is the table the run interned through (Config.Symbols, or
	// the fresh table created for the run).
	Symbols *SymbolTable
}

// pathNone marks an event with no URL path (empty in the log line).
const pathNone = ^uint32(0)

// pairEvent is the only per-record state that crosses the scan/aggregate
// boundary: interned pair identity, timestamp, interned path.
type pairEvent struct {
	pair PairID
	ts   int64
	path uint32
}

// ctxCheckStride is how many records a scan worker processes between
// context-cancellation checks.
const ctxCheckStride = 512

// eventBufs is one scan worker's per-partition event accumulators,
// pooled across ingests so the steady state (ops-loop daily runs,
// benchmark iterations) re-uses fully grown buffers instead of paying
// the growth reallocations every run.
type eventBufs struct {
	bufs [][]pairEvent
}

var eventBufPool = sync.Pool{New: func() any { return new(eventBufs) }}

// borrowEventBufs returns a pooled buffer set shaped for parts
// partitions, every buffer emptied but with its capacity retained.
//
//bw:pool-handoff ownership passes to Ingest, which Puts the set back after aggregation has drained it
func borrowEventBufs(parts int) *eventBufs {
	eb := eventBufPool.Get().(*eventBufs)
	if len(eb.bufs) != parts {
		eb.bufs = make([][]pairEvent, parts)
	}
	for i := range eb.bufs {
		eb.bufs[i] = eb.bufs[i][:0]
	}
	return eb
}

// aggScratch is one partition aggregation's scratch: the flat scatter
// buffer, each event's group index, the pair-to-group map, the groups and
// each group's start.
type aggScratch struct {
	flat   []pairEvent
	group  []int32
	idx    map[PairID]int32
	groups []aggGroup
	starts []int
}

// aggGroup is one pair of a partition: its identity, its event count, and
// whether filter 1 lists its destination.
type aggGroup struct {
	pair   PairID
	events int
	listed bool
}

// aggPool recycles the aggregation phase's scratch across partitions and
// runs.
var aggPool = sync.Pool{New: func() any { return &aggScratch{idx: make(map[PairID]int32, 64)} }}

// Event is the source-agnostic input of data extraction: one observed
// interaction of one communication pair. Web-proxy, DNS and NetFlow
// sources all reduce to this shape (the paper notes the methodology only
// needs the activity summary of a communication pair, Sect. X).
type Event struct {
	// Source identifies the internal endpoint (MAC or IP), already
	// resolved: IngestEvents applies no correlator.
	Source string
	// Destination identifies the external endpoint (domain, IP, or
	// IP:port).
	Destination string
	// Timestamp is the event time in Unix seconds.
	Timestamp int64
	// Path is optional side-channel information for the token filter
	// (URL path for web traffic; empty for DNS/NetFlow).
	Path string
}

// workers resolves the configured worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Ingest scans the shards in parallel, parses lines zero-copy, interns
// endpoint strings, and hash-partitions events by pair into per-partition
// accumulators that build timeseries.ActivitySummary values directly —
// no intermediate record or event materialization.
func Ingest(ctx context.Context, shards []proxylog.Split, cfg Config) (*Result, error) {
	shardStats := make([]proxylog.ReadStats, len(shards))
	res, err := scatterGather(ctx, len(shards), cfg, func(sw *scanWorker, i int) (err error) {
		shardStats[i], err = sw.runShard(shards[i], cfg.MaxBadLines)
		if err != nil {
			err = fmt.Errorf("ingest: shard %s: %w", shards[i], err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, st := range shardStats {
		res.Stats.Shards = append(res.Stats.Shards, ShardStats{Split: shards[i], ReadStats: st})
		res.Stats.Records += st.Records
		res.Stats.SkippedLines += st.SkippedLines
		if res.Stats.FirstSkipped == "" && st.FirstSkipped != "" {
			res.Stats.FirstSkipped = fmt.Sprintf("%s: %s", shards[i], st.FirstSkipped)
		}
	}
	return res, nil
}

// IngestEvents is Ingest for input that is already parsed — a record
// slice, DNS queries, flow records: at(i) delivers event i of n. The
// index range is cut into one contiguous chunk per worker, scanned the
// way shards are, and everything past the scan (partition buffers,
// aggregation, truncation, output order) is Ingest's. at is called from
// the workers concurrently, each index exactly once. MaxBadLines and
// Correlator do not apply (there are no lines, and Event.Source is
// resolved); Stats stays zero.
func IngestEvents(ctx context.Context, n int, at func(i int) Event, cfg Config) (*Result, error) {
	chunks := cfg.workers()
	return scatterGather(ctx, chunks, cfg, func(sw *scanWorker, c int) error {
		return sw.scatterEvents(c*n/chunks, (c+1)*n/chunks, at)
	})
}

// scatterGather is the engine under both adapters. Scan phase: workers
// pull unit indices (shards, event chunks) off a channel and scan fills
// the worker's private per-partition event buffers, so the hot path takes
// no locks beyond the symbol table's sharded read locks. Aggregation
// phase: each partition gathers its slice of every worker's buffers and
// builds its pairs' summaries. The first failing unit (in unit order)
// fails the run; a unit stopped only by the cancellation that failure
// triggered did not fail, so it cannot mask the real error.
func scatterGather(ctx context.Context, units int, cfg Config, scan func(sw *scanWorker, unit int) error) (*Result, error) {
	workers := cfg.workers()
	scale := cfg.Scale
	if scale <= 0 {
		scale = 1
	}
	parts := cfg.Partitions
	if parts <= 0 {
		parts = workers
	}
	syms := cfg.Symbols
	if syms == nil {
		syms = NewSymbolTable()
	}
	res := &Result{Symbols: syms}
	if units == 0 {
		return res, nil
	}
	// Fewer units than workers idles scan workers only: aggregation below
	// still spreads the partitions over the configured count.
	scanWorkers := min(workers, units)

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	unitCh := make(chan int)
	go func() {
		defer close(unitCh)
		for u := 0; u < units; u++ {
			select {
			case unitCh <- u:
			case <-ctx.Done():
				return
			}
		}
	}()

	scanErrs := make([]error, units)
	workerBufs := make([]*eventBufs, scanWorkers)
	defer func() {
		// The event buffers go back to the pool only after aggregation has
		// read them (or the run aborted) — this deferred return covers
		// every exit path.
		for _, eb := range workerBufs {
			eventBufPool.Put(eb)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < scanWorkers; w++ {
		set := borrowEventBufs(parts)
		workerBufs[w] = set
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := borrowSymCache(syms)
			defer symCachePool.Put(cache)
			sw := scanWorker{
				ctx:   ctx,
				syms:  syms,
				cache: cache,
				corr:  cfg.Correlator,
				parts: set.bufs,
			}
			for u := range unitCh {
				if err := scan(&sw, u); err != nil {
					// A unit stopped by the cancellation a sibling's
					// failure triggered did not fail; recording it would
					// mask that failure whenever it sits earlier in unit
					// order.
					if !(errors.Is(err, context.Canceled) && ctx.Err() != nil && parent.Err() == nil) {
						scanErrs[u] = err
					}
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()

	for _, err := range scanErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	type partResult struct {
		sums    []*timeseries.ActivitySummary
		counted []PairCount
		truncs  []Truncation
		err     error
	}
	partRes := make([]partResult, parts)
	aggWorkers := min(workers, parts)
	wg = sync.WaitGroup{}
	for w := 0; w < aggWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := w; p < parts; p += aggWorkers {
				if err := ctx.Err(); err != nil {
					return
				}
				r := &partRes[p]
				r.sums, r.counted, r.truncs, r.err = aggregatePartition(p, workerBufs, syms, scale, cfg.MaxEventsPerPair, cfg.Listed)
				if r.err != nil {
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()

	for p, r := range partRes {
		if r.err != nil {
			return nil, fmt.Errorf("ingest: partition %d: %w", p, r.err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for _, r := range partRes {
		res.Summaries = append(res.Summaries, r.sums...)
		res.Counted = append(res.Counted, r.counted...)
		res.Truncated = append(res.Truncated, r.truncs...)
	}
	slices.SortFunc(res.Summaries, func(a, b *timeseries.ActivitySummary) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Destination, b.Destination))
	})
	slices.SortFunc(res.Truncated, func(a, b Truncation) int {
		return cmp.Or(cmp.Compare(a.Source, b.Source), cmp.Compare(a.Destination, b.Destination))
	})
	return res, nil
}

// scanWorker is one scan goroutine's private state.
type scanWorker struct {
	ctx     context.Context
	syms    *SymbolTable
	cache   *symCache
	corr    *proxylog.Correlator
	parts   [][]pairEvent
	scratch []byte
	n       int // records since last ctx check
}

// runShard scans one split, converting panics (including injected ones)
// into errors so a pathological shard degrades the run instead of taking
// down the process — the same containment contract as the pipeline's
// per-pair calls.
func (sw *scanWorker) runShard(sp proxylog.Split, maxBad int) (stats proxylog.ReadStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("scan panic: %v", r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointIngestShardScan, sp.String()); ferr != nil {
		return stats, ferr
	}
	return proxylog.ForEachSplit(sp, maxBad, sw.handle)
}

// handle is the per-record hot path: intern endpoints, partition by pair
// hash, append the 20-byte event tuple. No per-record heap allocation in
// the steady state (symbols warm).
//
//bw:noalloc per-record scan hot path; buffer growth is amortized in emit
func (sw *scanWorker) handle(v *proxylog.RecordView) error {
	if err := sw.poll(); err != nil {
		return err
	}
	path := pathNone
	if len(v.Path) != 0 {
		path = sw.cache.id(v.Path)
	}
	sw.emit(pairEvent{pair: PairID{Src: sw.sourceID(v), Dst: sw.cache.id(v.Host)}, ts: v.Timestamp, path: path})
	return nil
}

// scatterEvents is handle for already-parsed input: events [lo, hi) of the
// accessor go into the same partition buffers, interned through the same
// cache, so aggregation cannot tell the two adapters apart.
//
//bw:noalloc per-event adapter hot path; buffer growth is amortized in emit
func (sw *scanWorker) scatterEvents(lo, hi int, at func(i int) Event) error {
	for i := lo; i < hi; i++ {
		if err := sw.poll(); err != nil {
			return err
		}
		e := at(i)
		path := pathNone
		if e.Path != "" {
			path = sw.cache.idString(e.Path)
		}
		sw.emit(pairEvent{
			pair: PairID{Src: sw.cache.idString(e.Source), Dst: sw.cache.idString(e.Destination)},
			ts:   e.Timestamp, path: path,
		})
	}
	return nil
}

// poll checks for cancellation every ctxCheckStride records.
func (sw *scanWorker) poll() error {
	sw.n++
	if sw.n < ctxCheckStride {
		return nil
	}
	sw.n = 0
	return sw.ctx.Err()
}

// emit appends one event tuple to its pair's partition buffer.
func (sw *scanWorker) emit(e pairEvent) {
	p := PairHash(e.pair) % uint64(len(sw.parts))
	buf := sw.parts[p]
	if len(buf) == cap(buf) {
		// Amortized growth; every other event is written in place below.
		buf = append(buf, e)
	} else {
		buf = buf[:len(buf)+1]
		buf[len(buf)-1] = e
	}
	sw.parts[p] = buf
}

// sourceID interns the record's source identity: the raw client IP
// without a correlator, otherwise the DHCP-resolved MAC with the same
// "ip:<addr>" fallback as Correlator.SourceID.
func (sw *scanWorker) sourceID(v *proxylog.RecordView) uint32 {
	if sw.corr == nil {
		return sw.cache.id(v.ClientIP)
	}
	// Interning the IP first makes its canonical string available without
	// materializing a copy per record.
	ipID := sw.cache.id(v.ClientIP)
	if mac, err := sw.corr.MACFor(sw.syms.Lookup(ipID), v.Timestamp); err == nil {
		return sw.syms.InternString(mac)
	}
	sw.scratch = append(append(sw.scratch[:0], "ip:"...), v.ClientIP...)
	return sw.cache.id(sw.scratch)
}

// aggregatePartition builds the summaries of one partition: concatenate
// every worker's buffer for it, sort by (pair, timestamp), and walk the
// runs, feeding each pair's ordered timestamps straight into a summary
// builder. A pair whose destination listed names is only counted: its
// events are never scattered, sorted or summarized. Truncation keeps the
// earliest maxEvents events (the beaconing onset) with explicit accounting.
func aggregatePartition(p int, workerBufs []*eventBufs, syms *SymbolTable, scale int64, maxEvents int, listed func(string) bool) (sums []*timeseries.ActivitySummary, counted []PairCount, truncs []Truncation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("aggregate panic: %v", r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointIngestAggregate, strconv.Itoa(p)); ferr != nil {
		return nil, nil, nil, ferr
	}
	total := 0
	for _, eb := range workerBufs {
		total += len(eb.bufs[p])
	}
	if total == 0 {
		return nil, nil, nil, nil
	}
	// Group by pair with a two-pass counting scatter rather than one
	// O(n log n) sort of the whole partition: count each pair's events,
	// carve a flat buffer into per-pair segments, scatter events into
	// place, then sort each (much smaller) segment by timestamp alone.
	// The counting pass is the only one that probes the pair map: it
	// records each event's group for the scatter pass.
	sc := aggPool.Get().(*aggScratch)
	defer aggPool.Put(sc)
	if cap(sc.flat) < total {
		sc.flat = make([]pairEvent, total)
		sc.group = make([]int32, total)
	}
	flat, group := sc.flat[:total], sc.group[:total]
	idx := sc.idx
	clear(idx)
	groups := sc.groups[:0]
	i := 0
	for _, eb := range workerBufs {
		for _, e := range eb.bufs[p] {
			gi, ok := idx[e.pair]
			if !ok {
				gi = int32(len(groups))
				idx[e.pair] = gi
				groups = append(groups, aggGroup{pair: e.pair})
			}
			groups[gi].events++
			group[i] = gi
			i++
		}
	}
	sc.groups = groups
	nListed := 0
	if listed != nil {
		for gi := range groups {
			if listed(syms.Lookup(groups[gi].pair.Dst)) {
				groups[gi].listed = true
				nListed++
			}
		}
	}
	// starts holds each group's start, then its scatter cursor; a counted
	// group takes no room.
	if cap(sc.starts) < 2*len(groups)+1 {
		sc.starts = make([]int, 2*len(groups)+1)
	}
	starts := sc.starts[:2*len(groups)+1]
	starts[0] = 0
	for gi, g := range groups {
		n := g.events
		if g.listed {
			n = 0
		}
		starts[gi+1] = starts[gi] + n
	}
	cursor := starts[len(groups)+1:]
	copy(cursor, starts)
	i = 0
	for _, eb := range workerBufs {
		for _, e := range eb.bufs[p] {
			gi := group[i]
			i++
			if groups[gi].listed {
				continue
			}
			flat[cursor[gi]] = e
			cursor[gi]++
		}
	}
	sums = make([]*timeseries.ActivitySummary, 0, len(groups)-nListed)
	if nListed > 0 {
		counted = make([]PairCount, 0, nListed)
	}
	for gi, g := range groups {
		src, dst := syms.Lookup(g.pair.Src), syms.Lookup(g.pair.Dst)
		kept := g.events
		if maxEvents > 0 && kept > maxEvents {
			truncs = append(truncs, Truncation{
				Source: src, Destination: dst,
				Kept: maxEvents, Dropped: kept - maxEvents,
			})
			kept = maxEvents
		}
		if g.listed {
			counted = append(counted, PairCount{Source: src, Destination: dst, Events: kept})
			continue
		}
		run := flat[starts[gi]:starts[gi+1]]
		slices.SortFunc(run, func(a, b pairEvent) int {
			return cmp.Compare(a.ts, b.ts)
		})
		run = run[:kept]
		b := timeseries.NewBuilder(src, dst, scale, len(run))
		// Interned IDs are distinct exactly when paths are, so the sample
		// dedups by ID and looks up only the paths the summary keeps.
		var sample [timeseries.MaxURLPaths]uint32
		n := 0
		for _, e := range run {
			b.Add(e.ts)
			if e.path != pathNone && n < len(sample) && !slices.Contains(sample[:n], e.path) {
				sample[n] = e.path
				n++
				b.AddURLPath(syms.Lookup(e.path))
			}
		}
		as, serr := b.Summary()
		if serr != nil {
			return nil, nil, nil, serr
		}
		sums = append(sums, as)
	}
	return sums, counted, truncs, nil
}
