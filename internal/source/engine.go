package source

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

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
	// high-water mark are evicted — dropped from the store, the standing
	// analysis and the checkpoint (which compacts as a side effect). 0
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
}

func (h *pairHistory) observe(ts int64) {
	if len(h.ts) == 0 || ts < h.minTS {
		h.minTS = ts
	}
	if len(h.ts) == 0 || ts > h.maxTS {
		h.maxTS = ts
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
	applied  int64 // events applied since open (not persisted)
	uncommit int64 // events applied since the last successful commit

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

// OpenEngine opens (or creates) the state directory, recovers the last
// committed checkpoint, and returns the engine ready for Apply. A corrupt
// checkpoint is quarantined — the engine then starts empty and relies on
// the sources replaying — with the repair recorded in Recovery.
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
	e := &Engine{
		cfg:    cfg,
		pairs:  make(map[pairKey]*pairHistory),
		dirty:  make(map[pairKey]struct{}),
		pos:    make(map[string]Position),
		health: make(map[string]bool),
	}
	removeTempFiles(cfg.StateDir)
	cp, ok, err := loadCheckpoint(cfg.StateDir)
	if err != nil {
		if dst := quarantine(cfg.StateDir, checkpointPath(cfg.StateDir)); dst != "" {
			e.rec.Quarantined = append(e.rec.Quarantined, dst)
		}
		e.warnf("checkpoint unreadable (%v); starting from empty state", err)
		ok = false
	}
	if ok {
		for name, p := range cp.Sources {
			e.pos[name] = p
		}
		e.watermark, e.maxTS, e.lateDropped = cp.Watermark, cp.MaxTS, cp.LateDropped
		e.evictedCount = cp.Evicted
		for _, ps := range cp.Pairs {
			k := pairKey{Src: ps.Src, Dst: ps.Dst}
			h := &pairHistory{ts: ps.TS, paths: ps.Paths, srcs: make(map[string]struct{})}
			if len(h.ts) > 0 {
				h.minTS, h.maxTS = h.ts[0], h.ts[0]
				for _, ts := range h.ts[1:] {
					if ts < h.minTS {
						h.minTS = ts
					}
					if ts > h.maxTS {
						h.maxTS = ts
					}
				}
			}
			e.pairs[k] = h
			// Every restored pair is dirty: the standing analysis starts
			// empty, and the first tick detects the full committed history.
			e.dirty[k] = struct{}{}
		}
	}
	return e, nil
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
		if ev.Path != "" && h.paths == nil && len(h.ts) > 0 {
			h.paths = make([]string, len(h.ts))
		}
		h.observe(ev.TS)
		h.ts = append(h.ts, ev.TS)
		if h.paths != nil || ev.Path != "" {
			if h.paths == nil {
				h.paths = make([]string, 0, 1)
			}
			h.paths = append(h.paths, ev.Path)
		}
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
	e.applied += int64(applied)
	e.uncommit += int64(applied)
	return applied
}

// Commit makes the current state durable: positions, watermark and the
// pair store are written as one atomic checkpoint. The watermark advance
// (maxTS - Lateness) is computed into the checkpoint and installed in
// memory only after the write commits, so drop decisions always reflect
// durable state and replay after a crash reproduces them exactly.
//
// When RetainWindows is set, Commit also evicts idle pairs: any pair
// whose newest event trails the stream's high-water mark by more than
// RetainWindows lateness windows is dropped from the checkpoint being
// written (compaction) and, once the write commits, from the in-memory
// store and (at the next tick) the standing analysis. The eviction set is a pure function of the committed
// maxTS, so every recovery replays the same evictions at the same
// commits; and the cutoff never exceeds the new watermark, so an evicted
// pair's events would be dropped as late on replay anyway.
func (e *Engine) Commit() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	wm := e.watermark
	if e.cfg.Lateness > 0 && e.maxTS-e.cfg.Lateness > wm {
		wm = e.maxTS - e.cfg.Lateness
	}
	var evict []pairKey
	if e.cfg.RetainWindows > 0 {
		// Pre-plan crash point: dying here loses nothing (no state has
		// changed, the commit just fails).
		if err := faultCheck(faultinject.PointSourceCompactPlan, "compact"); err != nil {
			return fmt.Errorf("source: compact: %w", err)
		}
		cutoff := e.maxTS - int64(e.cfg.RetainWindows)*e.cfg.Lateness
		for k, h := range e.pairs {
			if h.maxTS <= cutoff {
				evict = append(evict, k)
			}
		}
		sort.Slice(evict, func(i, j int) bool {
			if evict[i].Src != evict[j].Src {
				return evict[i].Src < evict[j].Src
			}
			return evict[i].Dst < evict[j].Dst
		})
	}
	cp := &checkpoint{
		Version:     checkpointVersion,
		Sources:     make(map[string]Position, len(e.pos)),
		Watermark:   wm,
		MaxTS:       e.maxTS,
		LateDropped: e.lateDropped,
		Evicted:     e.evictedCount + int64(len(evict)),
	}
	for name, p := range e.pos {
		cp.Sources[name] = p
	}
	evicting := make(map[pairKey]struct{}, len(evict))
	for _, k := range evict {
		evicting[k] = struct{}{}
	}
	keys := e.sortedPairKeys()
	cp.Pairs = make([]pairState, 0, len(keys)-len(evict))
	for _, k := range keys {
		if _, gone := evicting[k]; gone {
			continue
		}
		h := e.pairs[k]
		cp.Pairs = append(cp.Pairs, pairState{Src: k.Src, Dst: k.Dst, TS: h.ts, Paths: h.paths})
	}
	if err := writeCheckpoint(e.cfg.StateDir, cp); err != nil {
		return err
	}
	e.watermark = wm
	e.uncommit = 0
	for _, k := range evict {
		delete(e.pairs, k)
		delete(e.dirty, k)
		e.evicted = append(e.evicted, pipeline.PairRef{Source: k.Src, Destination: k.Dst})
	}
	e.evictedCount += int64(len(evict))
	if len(evict) > 0 {
		// Post-eviction crash point: the compacted checkpoint is durable
		// and the in-memory store already dropped the evicted pairs.
		_ = faultCheck(faultinject.PointSourceEvictApply, "evict")
	}
	// Post-commit crash point: everything after this line is observable
	// only in memory.
	_ = faultCheck(faultinject.PointSourceCommitDone, "checkpoint")
	return nil
}

func (e *Engine) sortedPairKeys() []pairKey {
	keys := make([]pairKey, 0, len(e.pairs))
	for k := range e.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
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
	sort.Slice(dirtyKeys, func(i, j int) bool {
		if dirtyKeys[i].Src != dirtyKeys[j].Src {
			return dirtyKeys[i].Src < dirtyKeys[j].Src
		}
		return dirtyKeys[i].Dst < dirtyKeys[j].Dst
	})
	changed := make([]*timeseries.ActivitySummary, 0, len(dirtyKeys))
	for _, k := range dirtyKeys {
		h := e.pairs[k]
		if h == nil {
			// Dirty mark survived the pair's eviction; the removal below
			// already unwinds it.
			delete(e.dirty, k)
			continue
		}
		as, err := e.buildSummary(k, h)
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		changed = append(changed, as)
		delete(e.dirty, k)
	}
	removed := e.evicted
	e.evicted = nil
	dirty := len(changed)
	stale := e.staleLocked()
	tick := e.ticks + 1
	e.mu.Unlock()

	res, err := e.inc.Tick(ctx, changed, removed)
	if err != nil {
		// The delta was consumed even though the tick failed; re-dirty the
		// changed pairs and re-queue the removals so the next tick retries
		// the same delta instead of silently dropping it.
		e.mu.Lock()
		for _, as := range changed {
			k := pairKey{Src: as.Source, Dst: as.Destination}
			if _, live := e.pairs[k]; live {
				e.dirty[k] = struct{}{}
			}
		}
		e.evicted = append(removed, e.evicted...)
		e.mu.Unlock()
		return nil, err
	}
	e.mu.Lock()
	e.ticks = tick
	e.mu.Unlock()
	return &TickResult{Result: res, Dirty: dirty, Stale: stale, Tick: tick}, nil
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
}

// Stats returns the engine's current accounting.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	var events int64
	for _, h := range e.pairs {
		events += int64(len(h.ts))
	}
	return Stats{
		Pairs:       len(e.pairs),
		Events:      events,
		Uncommitted: e.uncommit,
		Watermark:   e.watermark,
		LateDropped: e.lateDropped,
		Ticks:       e.ticks,
		Evicted:     e.evictedCount,
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
