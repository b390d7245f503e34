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
	// global whitelist); it must not change during the run. Each scan
	// worker takes the verdict once per destination symbol, right after
	// interning the event's endpoints, and counts a listed event where it
	// is parsed: its path is never interned and it never reaches a
	// partition buffer or the aggregation. Such a pair comes back in
	// Result.Counted, with the same Truncation accounting a summary would
	// have had.
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
// counts of the pairs Config.Listed names, in no particular order. Counted
// is summed from the scan workers' per-partition counts, so the memory it
// costs is bounded by the listed pairs, not by their events.
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
// the growth reallocations every run. With Config.Listed set, the set also
// carries the worker's per-partition counts of listed pairs and its
// verdict memo; without it they are left untouched.
type eventBufs struct {
	bufs     [][]pairEvent
	counts   []map[PairID]int32
	verdicts []uint8
}

var eventBufPool = sync.Pool{New: func() any { return new(eventBufs) }}

// borrowEventBufs returns a pooled buffer set shaped for parts
// partitions, every buffer emptied but with its capacity retained; with
// listed, every count map and the verdict memo too, and without it no
// count maps at all.
//
//bw:pool-handoff ownership passes to Ingest, which Puts the set back after aggregation has drained it
func borrowEventBufs(parts int, listed bool) *eventBufs {
	eb := eventBufPool.Get().(*eventBufs)
	if len(eb.bufs) != parts {
		eb.bufs = make([][]pairEvent, parts)
	}
	for i := range eb.bufs {
		eb.bufs[i] = eb.bufs[i][:0]
	}
	if !listed {
		// No count maps: the maps stay behind the slice for a later run.
		eb.counts = eb.counts[:0]
		return eb
	}
	if cap(eb.counts) < parts {
		eb.counts = make([]map[PairID]int32, parts)
	}
	eb.counts = eb.counts[:parts]
	for i, m := range eb.counts {
		if m == nil {
			eb.counts[i] = make(map[PairID]int32)
		} else {
			clear(m)
		}
	}
	// A verdict holds for one run's Listed only.
	clear(eb.verdicts)
	return eb
}

// Filter 1's verdict on a destination symbol, memoized per scan worker.
const (
	verdictUnknown uint8 = iota
	verdictUnlisted
	verdictListed
)

// aggScratch is one partition aggregation's scratch: the flat scatter
// buffer, each event's group index, the pair-to-group map, the groups,
// each group's start, and the listed pairs' counts summed over workers.
type aggScratch struct {
	flat   []pairEvent
	group  []int32
	idx    map[PairID]int32
	groups []aggGroup
	starts []int
	counts map[PairID]int
}

// aggGroup is one pair of a partition: its identity and its event count.
type aggGroup struct {
	pair   PairID
	events int
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
		set := borrowEventBufs(parts, cfg.Listed != nil)
		workerBufs[w] = set
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := borrowSymCache(syms)
			defer symCachePool.Put(cache)
			sw := scanWorker{
				ctx:      ctx,
				syms:     syms,
				cache:    cache,
				corr:     cfg.Correlator,
				parts:    set.bufs,
				listed:   cfg.Listed,
				counts:   set.counts,
				verdicts: set.verdicts,
			}
			// The memo goes back with the set, keeping what it grew to.
			defer func() { set.verdicts = sw.verdicts }()
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
				r.sums, r.counted, r.truncs, r.err = aggregatePartition(p, workerBufs, syms, scale, cfg.MaxEventsPerPair)
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
	// listed is Config.Listed; counts holds, per partition, the events of
	// each pair it lists, and verdicts its verdict per destination symbol
	// ID (verdictUnknown until first asked).
	listed   func(string) bool
	counts   []map[PairID]int32
	verdicts []uint8
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

// handle is the per-record hot path: intern endpoints, count the event if
// filter 1 lists its destination, else intern its path, partition by pair
// hash and append the event tuple. No per-record heap allocation in the
// steady state (symbols and pairs warm).
//
//bw:noalloc per-record scan hot path; buffer growth is amortized in emit
func (sw *scanWorker) handle(v *proxylog.RecordView) error {
	if err := sw.poll(); err != nil {
		return err
	}
	pair := PairID{Src: sw.sourceID(v), Dst: sw.cache.id(v.Host)}
	if sw.counted(pair) {
		return nil
	}
	path := pathNone
	if len(v.Path) != 0 {
		path = sw.cache.id(v.Path)
	}
	sw.emit(pairEvent{pair: pair, ts: v.Timestamp, path: path})
	return nil
}

// scatterEvents is handle for already-parsed input: events [lo, hi) of the
// accessor are counted or go into the same partition buffers, interned
// through the same cache, so aggregation cannot tell the two adapters
// apart.
//
//bw:noalloc per-event adapter hot path; buffer growth is amortized in emit
func (sw *scanWorker) scatterEvents(lo, hi int, at func(i int) Event) error {
	for i := lo; i < hi; i++ {
		if err := sw.poll(); err != nil {
			return err
		}
		e := at(i)
		pair := PairID{Src: sw.cache.idString(e.Source), Dst: sw.cache.idString(e.Destination)}
		if sw.counted(pair) {
			continue
		}
		path := pathNone
		if e.Path != "" {
			path = sw.cache.idString(e.Path)
		}
		sw.emit(pairEvent{pair: pair, ts: e.Timestamp, path: path})
	}
	return nil
}

// counted books one event of pair to its partition's count and reports
// true if filter 1 lists the pair's destination; otherwise it does
// nothing. The verdict is taken once per destination symbol per worker:
// after that it is one indexed load.
func (sw *scanWorker) counted(pair PairID) bool {
	if sw.listed == nil {
		return false
	}
	if int(pair.Dst) >= len(sw.verdicts) {
		grown := make([]uint8, max(int(pair.Dst)+1, 2*len(sw.verdicts), 1024))
		copy(grown, sw.verdicts)
		sw.verdicts = grown
	}
	v := sw.verdicts[pair.Dst]
	if v == verdictUnknown {
		v = verdictUnlisted
		if sw.listed(sw.syms.Lookup(pair.Dst)) {
			v = verdictListed
		}
		sw.verdicts[pair.Dst] = v
	}
	if v != verdictListed {
		return false
	}
	sw.counts[PairHash(pair)%uint64(len(sw.counts))][pair]++
	return true
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
// builder. The pairs filter 1 lists never reached the buffers: their
// counts, taken at the scan, are summed over the workers into counted.
// Truncation keeps the earliest maxEvents events (the beaconing onset)
// with explicit accounting, for counted pairs as for summarized ones.
func aggregatePartition(p int, workerBufs []*eventBufs, syms *SymbolTable, scale int64, maxEvents int) (sums []*timeseries.ActivitySummary, counted []PairCount, truncs []Truncation, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("aggregate panic: %v", r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointIngestAggregate, strconv.Itoa(p)); ferr != nil {
		return nil, nil, nil, ferr
	}
	sc := aggPool.Get().(*aggScratch)
	defer aggPool.Put(sc)
	// truncate caps a pair's event count, recording the cut.
	truncate := func(pair PairID, events int) (src, dst string, kept int) {
		src, dst = syms.Lookup(pair.Src), syms.Lookup(pair.Dst)
		if maxEvents > 0 && events > maxEvents {
			truncs = append(truncs, Truncation{
				Source: src, Destination: dst,
				Kept: maxEvents, Dropped: events - maxEvents,
			})
			return src, dst, maxEvents
		}
		return src, dst, events
	}

	if len(workerBufs[0].counts) > 0 { // Config.Listed is set
		if sc.counts == nil {
			sc.counts = make(map[PairID]int)
		}
		merged := sc.counts
		clear(merged)
		for _, eb := range workerBufs {
			for pair, n := range eb.counts[p] {
				merged[pair] += int(n)
			}
		}
		counted = make([]PairCount, 0, len(merged))
		for pair, n := range merged {
			src, dst, kept := truncate(pair, n)
			counted = append(counted, PairCount{Source: src, Destination: dst, Events: kept})
		}
	}

	total := 0
	for _, eb := range workerBufs {
		total += len(eb.bufs[p])
	}
	if total == 0 {
		return nil, counted, truncs, nil
	}
	// Group by pair with a two-pass counting scatter rather than one
	// O(n log n) sort of the whole partition: count each pair's events,
	// carve a flat buffer into per-pair segments, scatter events into
	// place, then sort each (much smaller) segment by timestamp alone.
	// The counting pass is the only one that probes the pair map: it
	// records each event's group for the scatter pass.
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
	// starts holds each group's start, then its scatter cursor.
	if cap(sc.starts) < 2*len(groups)+1 {
		sc.starts = make([]int, 2*len(groups)+1)
	}
	starts := sc.starts[:2*len(groups)+1]
	starts[0] = 0
	for gi, g := range groups {
		starts[gi+1] = starts[gi] + g.events
	}
	cursor := starts[len(groups)+1:]
	copy(cursor, starts)
	i = 0
	for _, eb := range workerBufs {
		for _, e := range eb.bufs[p] {
			gi := group[i]
			i++
			flat[cursor[gi]] = e
			cursor[gi]++
		}
	}
	sums = make([]*timeseries.ActivitySummary, 0, len(groups))
	for gi, g := range groups {
		src, dst, kept := truncate(g.pair, g.events)
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
