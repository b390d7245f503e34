package source

import (
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"sort"
	"sync"

	"baywatch/internal/core"
	"baywatch/internal/faultinject"
	"baywatch/internal/pipeline"
	"baywatch/internal/timeseries"
)

// Config configures an Engine.
type Config struct {
	// StateDir holds the checkpoint (and quarantine) files; created if
	// missing.
	StateDir string
	// Scale is the time-series granularity in seconds (default 1).
	Scale int64
	// Lateness is the allowed event lateness in seconds: at commit time
	// the watermark advances to maxTS-Lateness, and events at or below
	// the committed watermark are dropped (counted, deterministically on
	// replay). 0 disables the watermark entirely — late events merge into
	// their pair, which simply becomes dirty and is re-detected.
	Lateness int64
	// Pipeline is the detection configuration each tick runs under.
	Pipeline pipeline.Config
	// RetainWindows bounds pair retention: at each commit, pairs whose
	// newest event is older than RetainWindows*Lateness behind the stream's
	// high-water mark are evicted — dropped from the store and the standing
	// analysis, and named in that commit's checkpoint frame so a replay
	// drops them too (their bytes leave the file at the next compaction). 0
	// retains forever.
	// Requires Lateness > 0: the eviction cutoff always trails the
	// committed watermark, so an evicted pair's events would be dropped as
	// late on replay anyway — eviction never changes what a recovering
	// engine computes. A pair seen again *after* the watermark restarts
	// with a fresh history (the trade retention makes by design).
	RetainWindows int
	// Logf receives recovery and degradation notes; nil discards them.
	Logf func(format string, args ...any)
}

// Recovery describes what OpenEngine found and repaired.
type Recovery struct {
	// Quarantined lists files moved to StateDir/quarantine/.
	Quarantined []string
	// Warnings are human-readable recovery notes.
	Warnings []string
}

// pairKey identifies one communication pair; a comparable struct, not a
// concatenated string, so endpoints containing the separator byte cannot
// collide (the pipeline's convention).
type pairKey struct {
	Src, Dst string
}

func (k pairKey) String() string { return k.Src + "|" + k.Dst }

// pairHistory is one pair's event history in arrival order, plus the set
// of sources that contributed to it (for staleness marking). minTS/maxTS
// are maintained on every append so retention scans and timeline queries
// never walk the event slice.
type pairHistory struct {
	ts    []int64
	paths []string // parallel to ts; nil when every event is path-less
	srcs  map[string]struct{}
	minTS int64
	maxTS int64
	// committed counts the leading events a checkpoint frame already
	// holds; ts[committed:] is what the next commit must write.
	committed int
	// det is the pair's standing detection as the last tick (or the
	// checkpoint log) reported it, computed over ts[:detN] — the same
	// Result the standing analysis holds, not a copy. It answers for the
	// pair only while detN == len(ts).
	det  *core.Result
	detN int
}

// detection returns the stored detection if it covers the whole history.
func (h *pairHistory) detection() *core.Result {
	if h.detN != len(h.ts) {
		return nil
	}
	return h.det
}

// add appends one event in arrival order, keeping paths parallel to ts
// (the first path-carrying event backfills empties) and the bounds
// current. Apply and checkpoint replay both build histories through it.
func (h *pairHistory) add(ts int64, path string) {
	if path != "" && h.paths == nil && len(h.ts) > 0 {
		h.paths = make([]string, len(h.ts))
	}
	if len(h.ts) == 0 || ts < h.minTS {
		h.minTS = ts
	}
	if len(h.ts) == 0 || ts > h.maxTS {
		h.maxTS = ts
	}
	h.ts = append(h.ts, ts)
	if h.paths != nil || path != "" {
		h.paths = append(h.paths, path)
	}
}

// Engine owns the daemon's detection state: the per-pair event store fed
// by connectors (Apply), the committed checkpoint (Commit), and
// incremental detection over dirty pairs (Tick). All methods are safe for
// concurrent use; connectors Apply from their own goroutines while the
// daemon loop commits and ticks.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	pairs    map[pairKey]*pairHistory
	dirty    map[pairKey]struct{}
	pos      map[string]Position
	health   map[string]bool // false = circuit open / flapping
	rec      Recovery
	ticks    int64
	events   int64 // events in the store: the sum of len(ts) over pairs
	applied  int64 // events applied since open (not persisted)
	uncommit int64 // events applied since the last successful commit

	// Checkpoint log state. touched lists the pairs holding events no
	// frame has yet (len(ts) > committed), each once; unlike dirty, which
	// ticks clear, only a successful commit clears it. durable is the
	// header of the last frame committed: a commit with no touched pair
	// and an unchanged header has nothing to write. logLen is the byte
	// length of the valid frames on disk — where the next frame goes — and
	// firstLen that of the first; suspect is set when a write failed part
	// way, so the next commit rewrites the file instead of appending
	// after a tail of unknown content.
	touched []pairKey
	// unsaved holds the pairs whose current detection no frame has yet.
	unsaved  map[pairKey]struct{}
	durable  durableHeader
	logLen   int64
	firstLen int64
	suspect  bool
	// Commit accounting since open, for Stats.
	commits, commitBytes, compactions int64
	// detFP keys the detections this engine writes and accepts (see
	// detectionFingerprint); detRestored and detStale count what the log
	// held at open.
	detFP                 uint64
	detRestored, detStale int64

	// tickMu serializes tick bodies: the standing pipeline state is
	// single-writer. e.mu is still released around the pipeline run so
	// Apply/Commit proceed concurrently; tickMu is always acquired first.
	tickMu sync.Mutex
	// inc is the standing analysis, created on the first tick. It caches
	// each clean pair's built summary, detection and indication, so a tick
	// rebuilds only dirty pairs' summaries and re-analyzes only what they
	// invalidate.
	inc *pipeline.Incremental
	// evicted buffers retention removals for the next tick to consume.
	// evictedCount is the lifetime total, persisted.
	evicted      []pipeline.PairRef
	evictedCount int64

	// Committed watermark state. The watermark only ever changes inside a
	// successful Commit, so replay-after-crash sees exactly the drop
	// decisions the committed history implies.
	watermark   int64
	maxTS       int64
	lateDropped int64
}

// durableHeader is the part of the engine's accounting a frame header
// records, as of the last frame committed. The watermark and the eviction
// total only change inside a commit, so they need no copy.
type durableHeader struct {
	pos         map[string]Position
	maxTS       int64
	lateDropped int64
}

// OpenEngine opens (or creates) the state directory, replays the
// checkpoint log, and returns the engine ready for Apply. A torn last
// frame is cut off and the engine resumes from the commit before it; a
// corrupt log is quarantined — the engine then starts empty and relies on
// the sources replaying. Either repair is recorded in Recovery.
func OpenEngine(cfg Config) (*Engine, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("source: StateDir is required")
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.RetainWindows < 0 {
		return nil, fmt.Errorf("source: RetainWindows must be >= 0")
	}
	if cfg.RetainWindows > 0 && cfg.Lateness <= 0 {
		return nil, fmt.Errorf("source: RetainWindows requires Lateness > 0 (the eviction cutoff is RetainWindows lateness windows)")
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("source: create state dir: %w", err)
	}
	e := newEngine(cfg)
	removeTempFiles(cfg.StateDir)
	data, err := os.ReadFile(checkpointPath(cfg.StateDir))
	if os.IsNotExist(err) {
		return e, nil
	}
	if err != nil {
		return nil, fmt.Errorf("source: read checkpoint: %w", err)
	}
	good, first, err := replayLog(data, e.replayFrame)
	if err != nil {
		e = newEngine(cfg) // discard whatever the frames before the bad one built
		if dst := quarantine(cfg.StateDir, checkpointPath(cfg.StateDir)); dst != "" {
			e.rec.Quarantined = append(e.rec.Quarantined, dst)
		}
		e.warnf("checkpoint unreadable (%v); starting from empty state", err)
		return e, nil
	}
	e.logLen, e.firstLen = good, first
	if torn := int64(len(data)) - good; torn > 0 {
		e.warnf("checkpoint ends in a torn frame (%d byte(s) after byte %d); resuming from the last complete commit", torn, good)
		if err := truncateCheckpoint(cfg.StateDir, good); err != nil {
			e.warnf("cannot truncate the torn frame (%v); the next commit rewrites the checkpoint", err)
			e.suspect = true
		}
	}
	e.replayed()
	return e, nil
}

// replayed readies an engine whose checkpoint log has just been replayed:
// the header the last frame left is the durable one, and every restored
// pair is dirty — the standing analysis starts empty and the first tick
// rebuilds it over the full committed history. A pair whose last stored
// detection still covers that history under this configuration brings it
// along, so the tick does not detect it again; any other stored detection
// is dropped here.
func (e *Engine) replayed() {
	e.rememberDurable()
	for k, h := range e.pairs {
		e.dirty[k] = struct{}{}
		switch {
		case h.detN == 0:
		case h.detection() != nil:
			e.detRestored++
		default:
			e.detStale++
			h.det, h.detN = nil, 0
		}
	}
	if e.detRestored+e.detStale > 0 && e.cfg.Logf != nil {
		e.cfg.Logf("source: restart reuses %d stored detection(s); %d more are stale (history or detector configuration moved on) and will be computed again",
			e.detRestored, e.detStale)
	}
}

func newEngine(cfg Config) *Engine {
	return &Engine{
		cfg:     cfg,
		pairs:   make(map[pairKey]*pairHistory),
		dirty:   make(map[pairKey]struct{}),
		unsaved: make(map[pairKey]struct{}),
		pos:     make(map[string]Position),
		health:  make(map[string]bool),
		durable: durableHeader{pos: make(map[string]Position)},
		detFP:   detectionFingerprint(cfg),
	}
}

// detectionFingerprint hashes everything besides a pair's history that
// decides its detection: every field of the detector configuration as the
// detector will run it, the series scale, and the layout the result is
// stored in. %+v prints each field by name, so a field added to
// core.Config is covered without a change here.
func detectionFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "codec=%d scale=%d %+v", core.ResultCodecRevision, cfg.Scale,
		core.NewDetector(cfg.Pipeline.Detector).Config())
	return h.Sum64()
}

// Recovery reports what OpenEngine repaired.
func (e *Engine) Recovery() Recovery {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Recovery{
		Quarantined: append([]string(nil), e.rec.Quarantined...),
		Warnings:    append([]string(nil), e.rec.Warnings...),
	}
}

func (e *Engine) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.rec.Warnings = append(e.rec.Warnings, msg)
	if e.cfg.Logf != nil {
		e.cfg.Logf("source: %s", msg)
	}
}

// Apply ingests one connector batch, deduplicating on the source's
// sequence number: events the committed-or-newer position already covers
// are skipped, so a reconnecting producer may resend an overlapping range
// and every event still counts exactly once. Events at or below the
// committed watermark are dropped (counted in LateDropped); everything
// else lands in its pair's history and marks the pair dirty for the next
// tick. Returns the number of events actually applied.
func (e *Engine) Apply(b Batch) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.pos[b.Source]
	first := b.Pos.Records - int64(len(b.Events))
	skip := cur.Records - first
	if skip < 0 {
		// The producer skipped ahead (e.g. the tail of a rotated-away file
		// was never read). The gap is unrecoverable; account for it rather
		// than guessing.
		e.warnf("source %s jumped from record %d to %d; %d event(s) unrecoverable",
			b.Source, cur.Records, first, -skip)
		skip = 0
	}
	if skip >= int64(len(b.Events)) {
		// Entirely a resend, or a batch of only skipped lines: no events
		// land, but the position still advances — a follower that scanned
		// past malformed lines must persist that offset progress.
		if b.Pos.Records >= cur.Records {
			e.pos[b.Source] = b.Pos
		}
		return 0
	}
	applied := 0
	for _, ev := range b.Events[skip:] {
		if e.watermark > 0 && ev.TS <= e.watermark {
			e.lateDropped++
			continue
		}
		k := pairKey{Src: ev.Source, Dst: ev.Destination}
		h := e.pairs[k]
		if h == nil {
			h = &pairHistory{srcs: make(map[string]struct{})}
			e.pairs[k] = h
		}
		if len(h.ts) == h.committed {
			e.touched = append(e.touched, k)
		}
		h.add(ev.TS, ev.Path)
		h.srcs[b.Source] = struct{}{}
		if ev.TS > e.maxTS {
			e.maxTS = ev.TS
		}
		e.dirty[k] = struct{}{}
		applied++
	}
	if b.Pos.Records >= cur.Records {
		// >= not >: an all-skipped batch advances the source's offset
		// without delivering events, and that progress must still persist.
		e.pos[b.Source] = b.Pos
	}
	e.events += int64(applied)
	e.applied += int64(applied)
	e.uncommit += int64(applied)
	return applied
}

// Commit makes the current state durable by writing one checkpoint frame
// (see checkpoint.go): normally the events applied since the last commit,
// appended and fsynced — O(new events) under e.mu; when the log has
// doubled since its first frame, the whole state rewritten through the
// atomic rename chain — O(state). Either write also carries the
// detections ticks produced since the last commit (a rewrite, every
// detection that still covers its pair's history), so a restart need not
// compute them again. A commit with nothing new to record returns without
// touching the disk. The watermark advance (maxTS -
// Lateness) is computed into the frame and installed in memory only after
// the write commits, so drop decisions always reflect durable state and
// replay after a crash reproduces them exactly. A failed write changes
// nothing in memory but marks the log suspect, which makes the next
// commit a full rewrite.
//
// When RetainWindows is set, Commit also evicts idle pairs: any pair
// whose newest event trails the stream's high-water mark by more than
// RetainWindows lateness windows is named in the frame being written
// and, once the write commits, dropped from the in-memory store and (at
// the next tick) the standing analysis. The eviction set is a pure
// function of the committed maxTS, so every recovery replays the same
// evictions at the same commits; and the cutoff never exceeds the new
// watermark, so an evicted pair's events would be dropped as late on
// replay anyway.
func (e *Engine) Commit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.touched) == 0 && len(e.unsaved) == 0 && e.maxTS == e.durable.maxTS &&
		e.lateDropped == e.durable.lateDropped && maps.Equal(e.pos, e.durable.pos) {
		// No new event or detection and no header movement. That also rules
		// out a new eviction: the cutoff moves only with maxTS.
		return nil
	}
	wm := e.watermark
	if e.cfg.Lateness > 0 && e.maxTS-e.cfg.Lateness > wm {
		wm = e.maxTS - e.cfg.Lateness
	}
	var evict []pairKey
	evictable := func(*pairHistory) bool { return false }
	if e.cfg.RetainWindows > 0 {
		// Pre-plan crash point: dying here loses nothing (no state has
		// changed, the commit just fails).
		if err := faultCheck(faultinject.PointSourceCompactPlan, "compact"); err != nil {
			return fmt.Errorf("source: compact: %w", err)
		}
		cutoff := e.maxTS - int64(e.cfg.RetainWindows)*e.cfg.Lateness
		evictable = func(h *pairHistory) bool { return h.maxTS <= cutoff }
		for k, h := range e.pairs {
			if evictable(h) {
				evict = append(evict, k)
			}
		}
		sortPairKeys(evict)
	}

	compact := e.logLen == 0 || e.suspect || e.logLen-e.firstLen >= e.firstLen
	evictedCount := e.evictedCount + int64(len(evict))
	// A delta frame holds the touched pairs' new events, the evictions and
	// the unsaved detections. A snapshot is a delta from empty: every
	// surviving pair in full with its detection, and no eviction list,
	// since the evicted pairs are simply absent. It merges the log with
	// what is uncommitted, so it is about their size.
	named, keys, sizeHint := evict, e.touched, 64*int64(len(e.touched))+16*e.uncommit
	var detected []pairKey
	if compact {
		named, keys, sizeHint = nil, e.sortedPairKeys(), e.logLen+16*e.uncommit
	} else {
		sortPairKeys(keys)
		if len(e.unsaved) > 0 {
			detected = make([]pairKey, 0, len(e.unsaved))
			for k := range e.unsaved {
				detected = append(detected, k)
			}
			sortPairKeys(detected)
			sizeHint += detectionSizeHint * int64(len(detected))
		}
	}
	frame, err := e.encodeFrame(wm, evictedCount, named, keys, detected, evictable, compact, sizeHint)
	if err != nil {
		return err
	}
	if compact {
		err = writeCheckpoint(e.cfg.StateDir, frame)
	} else {
		err = appendCheckpoint(e.cfg.StateDir, frame, e.logLen)
	}
	if err != nil {
		e.suspect = true
		return err
	}
	if compact {
		e.logLen, e.firstLen, e.suspect = int64(len(frame)), int64(len(frame)), false
		e.compactions++
	} else {
		e.logLen += int64(len(frame))
	}
	e.commits++
	e.commitBytes += int64(len(frame))
	for _, k := range e.touched {
		h := e.pairs[k]
		h.committed = len(h.ts)
	}
	e.touched = e.touched[:0]
	clear(e.unsaved)
	e.rememberDurable()
	e.watermark = wm
	e.uncommit = 0
	for _, k := range evict {
		e.events -= int64(len(e.pairs[k].ts))
		delete(e.pairs, k)
		delete(e.dirty, k)
		e.evicted = append(e.evicted, pipeline.PairRef{Source: k.Src, Destination: k.Dst})
	}
	e.evictedCount = evictedCount
	if len(evict) > 0 {
		// Post-eviction crash point: the frame naming the evictions is
		// durable and the in-memory store already dropped the pairs.
		_ = faultCheck(faultinject.PointSourceEvictApply, "evict")
	}
	// Post-commit crash point: everything after this line is observable
	// only in memory.
	_ = faultCheck(faultinject.PointSourceCommitDone, "checkpoint")
	return nil
}

// rememberDurable records the current header as committed; e.mu must be
// held.
func (e *Engine) rememberDurable() {
	clear(e.durable.pos)
	maps.Copy(e.durable.pos, e.pos)
	e.durable.maxTS, e.durable.lateDropped = e.maxTS, e.lateDropped
}

func sortPairKeys(keys []pairKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
}

func (e *Engine) sortedPairKeys() []pairKey {
	keys := make([]pairKey, 0, len(e.pairs))
	for k := range e.pairs {
		keys = append(keys, k)
	}
	sortPairKeys(keys)
	return keys
}

// TickResult is one incremental detection pass.
type TickResult struct {
	// Result is the standing pipeline result over the full pair store;
	// only dirty pairs were re-summarized and re-detected.
	Result *pipeline.Result
	// Dirty is the number of pairs whose history changed since the
	// previous tick (the re-analyzed set).
	Dirty int
	// Detected is how many pairs this tick sent through the detect job. A
	// dirty pair whose stored detection still covers its history — every
	// unchanged pair after a restart — is not among them.
	Detected int
	// Stale lists pairs fed by at least one currently-unhealthy source:
	// their histories may be missing recent events, so their verdicts
	// should be read as stale until the source recovers. Sorted by
	// (source, destination).
	Stale []pipeline.PairRef
	// Tick is the 1-based tick sequence number.
	Tick int64
}

// Tick runs one detection pass: pairs whose history changed since the
// last tick are re-summarized and handed, with retention's evictions, to
// the standing pipeline, which re-analyzes only what the delta
// invalidates — steady-state cost is O(dirty pairs), not O(total pairs).
// A pair is detected once per distinct history: a dirty pair whose
// recorded detection already covers its whole history hands it over
// instead of being detected again, which is what a restart's first tick
// finds for every pair the log held a detection of.
// The result is bit-identical to a from-scratch batch run over the same
// events (TestStreamingMatchesBatchPipeline), because a batch run is the
// same pipeline ticked once from empty.
func (e *Engine) Tick(ctx context.Context) (*TickResult, error) {
	e.tickMu.Lock()
	defer e.tickMu.Unlock()
	e.mu.Lock()
	if err := faultCheck(faultinject.PointSourceDetectTick, "tick"); err != nil {
		e.mu.Unlock()
		return nil, fmt.Errorf("source: tick: %w", err)
	}
	if e.inc == nil {
		cfg := e.cfg.Pipeline
		cfg.Scale = e.cfg.Scale
		inc, err := pipeline.NewIncremental(cfg)
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("source: tick: %w", err)
		}
		e.inc = inc
	}
	dirtyKeys := make([]pairKey, 0, len(e.dirty))
	for k := range e.dirty {
		dirtyKeys = append(dirtyKeys, k)
	}
	sortPairKeys(dirtyKeys)
	changed := make([]*timeseries.ActivitySummary, 0, len(dirtyKeys))
	known := make([]*core.Result, 0, len(dirtyKeys))
	for _, k := range dirtyKeys {
		h := e.pairs[k]
		if h == nil {
			// Dirty mark survived the pair's eviction; the removal below
			// already unwinds it.
			continue
		}
		as, err := e.buildSummary(k, h)
		if err != nil {
			// No mark is consumed: the pairs before this one stay dirty.
			e.mu.Unlock()
			return nil, err
		}
		changed = append(changed, as)
		known = append(known, h.detection())
	}
	clear(e.dirty)
	removed := e.evicted
	e.evicted = nil
	stale := e.staleLocked()
	tick := e.ticks + 1
	e.mu.Unlock()

	res, err := e.inc.TickWithDetections(ctx, changed, known, removed)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		// The delta was consumed even though the tick failed; re-dirty the
		// changed pairs and re-queue the removals so the next tick retries
		// the same delta instead of silently dropping it.
		for _, as := range changed {
			k := pairKey{Src: as.Source, Dst: as.Destination}
			if _, live := e.pairs[k]; live {
				e.dirty[k] = struct{}{}
			}
		}
		e.evicted = append(removed, e.evicted...)
		return nil, err
	}
	e.ticks = tick
	e.recordDetections(res)
	return &TickResult{Result: res, Dirty: len(changed), Detected: res.Detected, Stale: stale, Tick: tick}, nil
}

// recordDetections notes, for every candidate whose standing detection is
// not the one its pair's history already records, the result and the event
// count it covers, and marks the pair for the next commit to save. Pairs
// the tick produced no result for (errored, parked, timed out, dropped to a
// failure budget) record nothing. e.mu must be held.
func (e *Engine) recordDetections(res *pipeline.Result) {
	// A pair evicted while the tick ran may be back under the same key with
	// a new history; the tick's result is not about that one.
	var gone map[pairKey]struct{}
	if len(e.evicted) > 0 {
		gone = make(map[pairKey]struct{}, len(e.evicted))
		for _, r := range e.evicted {
			gone[pairKey{Src: r.Source, Dst: r.Destination}] = struct{}{}
		}
	}
	for _, c := range res.Candidates {
		k := pairKey{Src: c.Source, Dst: c.Destination}
		h := e.pairs[k]
		if c.Detection == nil || h == nil || h.det == c.Detection {
			continue
		}
		if _, evicted := gone[k]; evicted {
			continue
		}
		h.det, h.detN = c.Detection, c.Summary.EventCount()
		if h.detection() != nil {
			e.unsaved[k] = struct{}{}
		}
	}
}

// staleLocked lists pairs fed by an unhealthy source; e.mu must be held.
func (e *Engine) staleLocked() []pipeline.PairRef {
	var stale []pipeline.PairRef
	for k, h := range e.pairs {
		for name := range h.srcs {
			if healthy, tracked := e.health[name]; tracked && !healthy {
				stale = append(stale, pipeline.PairRef{Source: k.Src, Destination: k.Dst})
				break
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		if stale[i].Source != stale[j].Source {
			return stale[i].Source < stale[j].Source
		}
		return stale[i].Destination < stale[j].Destination
	})
	return stale
}

// buildSummary materializes one pair's ActivitySummary; e.mu must be held.
func (e *Engine) buildSummary(k pairKey, h *pairHistory) (*timeseries.ActivitySummary, error) {
	as, err := timeseries.FromTimestamps(k.Src, k.Dst, h.ts, e.cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("source: summarize %s: %w", k, err)
	}
	for _, p := range h.paths {
		as.AddURLPath(p)
	}
	return as, nil
}

// SetSourceHealth records a source's supervision verdict; unhealthy
// sources mark their pairs stale in tick results.
func (e *Engine) SetSourceHealth(name string, healthy bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.health[name] = healthy
}

// Position returns the engine's current position for the named source —
// the resume point for a (re)starting connector. It reflects applied (not
// necessarily committed) events: a restarting connector must not resend
// what the engine already holds in memory.
func (e *Engine) Position(name string) Position {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pos[name]
}

// Positions returns a copy of every source's current position.
func (e *Engine) Positions() map[string]Position {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]Position, len(e.pos))
	for name, p := range e.pos {
		out[name] = p
	}
	return out
}

// Stats is a point-in-time snapshot of the engine's accounting.
type Stats struct {
	// Pairs and Events size the in-memory store.
	Pairs  int
	Events int64
	// Uncommitted counts events applied since the last successful commit.
	Uncommitted int64
	// Watermark is the committed late-event cutoff (0 = none).
	Watermark int64
	// LateDropped counts events dropped behind the watermark.
	LateDropped int64
	// Ticks counts completed detection passes.
	Ticks int64
	// Evicted counts pairs aged out by retention over the engine's
	// lifetime (persisted across restarts).
	Evicted int64
	// Commits counts checkpoint frames written since the engine opened,
	// CommitBytes their total size, and Compactions how many of them
	// rewrote the whole state instead of appending a delta.
	Commits     int64
	CommitBytes int64
	Compactions int64
	// DetectionsRestored counts the pairs whose standing detection the
	// checkpoint log held at open and a tick can reuse; DetectionsStale
	// those whose stored detection was dropped instead, because the pair's
	// history or the detector configuration had moved on since.
	DetectionsRestored int64
	DetectionsStale    int64
}

// Stats returns the engine's current accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Pairs:       len(e.pairs),
		Events:      e.events,
		Uncommitted: e.uncommit,
		Watermark:   e.watermark,
		LateDropped: e.lateDropped,
		Ticks:       e.ticks,
		Evicted:     e.evictedCount,
		Commits:     e.commits,
		CommitBytes: e.commitBytes,
		Compactions: e.compactions,

		DetectionsRestored: e.detRestored,
		DetectionsStale:    e.detStale,
	}
}

// TimelineEntry is one destination's history for a host, the per-host
// timeline the query endpoint serves.
type TimelineEntry struct {
	Destination string `json:"destination"`
	Events      int    `json:"events"`
	First       int64  `json:"first"`
	Last        int64  `json:"last"`
	Stale       bool   `json:"stale,omitempty"`
	// Case is the pair's analyst verdict ("benign"/"malicious") when a
	// casefile labels store is configured; filled by the query layer.
	Case string `json:"case,omitempty"`
}

// timelineEntryLocked builds one pair's timeline entry; e.mu must be held.
func (e *Engine) timelineEntryLocked(k pairKey, h *pairHistory) TimelineEntry {
	entry := TimelineEntry{Destination: k.Dst, Events: len(h.ts), First: h.minTS, Last: h.maxTS}
	for name := range h.srcs {
		if healthy, tracked := e.health[name]; tracked && !healthy {
			entry.Stale = true
			break
		}
	}
	return entry
}

// HostTimeline returns the per-destination history of one source host,
// sorted by destination. O(pairs): first/last come from the maintained
// per-pair bounds, never from an event scan.
func (e *Engine) HostTimeline(src string) []TimelineEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []TimelineEntry
	for k, h := range e.pairs {
		if k.Src != src || len(h.ts) == 0 {
			continue
		}
		out = append(out, e.timelineEntryLocked(k, h))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Destination < out[j].Destination })
	return out
}

// Timelines returns every host's timeline in one pass — the query
// layer's per-generation snapshot source, so a scrape never walks the
// store once per host.
func (e *Engine) Timelines() map[string][]TimelineEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]TimelineEntry)
	for k, h := range e.pairs {
		if len(h.ts) == 0 {
			continue
		}
		out[k.Src] = append(out[k.Src], e.timelineEntryLocked(k, h))
	}
	for _, entries := range out {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Destination < entries[j].Destination })
	}
	return out
}
