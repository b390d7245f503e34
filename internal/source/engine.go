package source

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strings"
	"sync"

	"baywatch/internal/core"
	"baywatch/internal/durable"
	"baywatch/internal/faultinject"
	"baywatch/internal/ingest"
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

// pairHistory is one pair's event history in arrival order, plus what its
// summary reads besides the timestamps — the URL-path sample — and the
// sources that contributed to it (for staleness marking); no per-event
// side data. minTS/maxTS are maintained on every append so retention
// scans and timeline queries never walk the event slice.
type pairHistory struct {
	key pairKey
	ts  []int64
	// paths is the pair's URL-path sample: the first
	// timeseries.MaxURLPaths distinct non-empty paths, in arrival order —
	// exactly what ActivitySummary.AddURLPath keeps over every event.
	paths []string
	// srcs lists the sources that delivered events of the pair, in the
	// order they first did; one in the common case.
	srcs  []string
	minTS int64
	maxTS int64
	// committed, committedPaths and committedSrcs count the leading
	// events, sample entries and sources a checkpoint frame already holds;
	// what lies past them is what the next commit must write.
	committed, committedPaths, committedSrcs int
	// det is the pair's standing detection as the last tick (or the
	// checkpoint log) reported it, computed over ts[:detN] — the same
	// Result the standing analysis holds, not a copy. It answers for the
	// pair only while detN == len(ts).
	det  *core.Result
	detN int
	// dirty is set while the pair is on the engine's dirty list; gone once
	// retention evicted it, after which the engine's lists shed it;
	// evicting while the frame in flight names it for eviction.
	dirty, gone, evicting bool
	// shown is set while the published /host timelines show the pair's
	// current history; host is the index entry the publisher filed the
	// pair under (nil until it first publishes after the pair's creation).
	shown bool
	host  *hostPairs
}

// hostPairs is one source host's entry in the publisher's index: the
// host's pairs, in no particular order and possibly holding evicted husks
// until the host's next rebuild, and whether the host is queued on the
// engine's changedHosts list.
type hostPairs struct {
	name    string
	pairs   []*pairHistory
	changed bool
}

// detection returns the stored detection if it covers the whole history.
func (h *pairHistory) detection() *core.Result {
	if h.detN != len(h.ts) {
		return nil
	}
	return h.det
}

// add appends one event's timestamp in arrival order, keeping the bounds
// current. Apply and checkpoint replay both build histories through it.
func (h *pairHistory) add(ts int64) {
	if len(h.ts) == 0 || ts < h.minTS {
		h.minTS = ts
	}
	if len(h.ts) == 0 || ts > h.maxTS {
		h.maxTS = ts
	}
	h.ts = append(h.ts, ts)
}

// addPath offers one event's URL path to the sample and reports whether
// the sample took it: an empty path, one already sampled, or any path once
// the sample is full is not taken. Apply offers every event's path; replay
// offers only the entries a frame recorded, each of which must be taken.
func (h *pairHistory) addPath(path string) bool {
	if path == "" || len(h.paths) >= timeseries.MaxURLPaths || slices.Contains(h.paths, path) {
		return false
	}
	h.paths = append(h.paths, path)
	return true
}

// addSource records that name delivered an event of the pair and reports
// whether it is new to the pair.
func (h *pairHistory) addSource(name string) bool {
	if slices.Contains(h.srcs, name) {
		return false
	}
	h.srcs = append(h.srcs, name)
	return true
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
	pos      map[string]Position
	health   map[string]bool // false = circuit open / flapping
	rec      Recovery
	ticks    int64
	events   int64 // events in the store: the sum of len(ts) over pairs
	applied  int64 // events applied since open (not persisted)
	uncommit int64 // events applied since the last successful commit

	// order lists the pairs in the order they were created, the order a
	// snapshot writes them; dirty lists the pairs whose history changed
	// since the last tick, each once (pairHistory.dirty). Evicted pairs are
	// marked gone and shed lazily: from order at the next compaction or once
	// they are half of it (gone counts them), from dirty at the next tick.
	order []*pairHistory
	dirty []*pairHistory
	gone  int

	// Host index for the query publisher (publishTimelines), built on the
	// publisher's side so Apply only tests one flag. order[:indexed] are
	// filed in hosts; changedHosts lists the hosts with a pair changed,
	// evicted or newly filed since the last publish, each once
	// (hostPairs.changed). pubUnhealthy is whether a source was unhealthy
	// at the last publish, whose stale marks are then out of date.
	hosts        map[string]*hostPairs
	changedHosts []*hostPairs
	indexed      int
	pubUnhealthy bool

	// Checkpoint log state. touched lists the pairs holding events no
	// frame has yet (len(ts) > committed), each once and in the order they
	// were first touched, which is the order a delta frame writes them;
	// unlike dirty, which ticks clear, only a commit's seal clears it.
	// durable is the header of the last frame committed: a commit with no
	// touched pair and an unchanged header has nothing to write.
	// logLen is the byte length of the valid frames on disk — where the
	// next frame goes — and firstLen that of the first; suspect is set
	// when a write failed part way, so the next commit rewrites the file
	// instead of appending after a tail of unknown content.
	touched []*pairHistory
	// unsaved holds the pairs whose current detection no frame has yet.
	unsaved  map[pairKey]struct{}
	durable  durableHeader
	logLen   int64
	firstLen int64
	suspect  bool
	// Commit accounting since open, for Stats.
	commits, commitBytes, compactions int64
	// inflight is the frame sealed and not yet installed or failed, if
	// any: the one frame a commit may have in flight (see seal and
	// awaitsFrame). pairBuf holds the pair entries of the last frame
	// settled, emptied, for the next seal to fill.
	inflight *frameSeal
	pairBuf  []pairDelta
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

	// Committed watermark state. The watermark only ever changes when a
	// successful Commit installs its frame, so replay-after-crash sees exactly the drop
	// decisions the committed history implies.
	watermark   int64
	maxTS       int64
	lateDropped int64
}

// durableHeader is the part of the engine's accounting a frame header
// records, as of the last frame committed, or, in a sealed frame, as of
// its seal. The watermark and the eviction total only change inside a
// commit, so they need no copy.
type durableHeader struct {
	pos         map[string]Position
	maxTS       int64
	lateDropped int64
}

// OpenEngine opens (or creates) the state directory, replays the
// checkpoint log, and returns the engine ready for Apply. A torn last
// frame is cut off and the engine resumes from the commit before it; a
// corrupt log is quarantined — the engine then starts empty and relies on
// the sources replaying; a corrupt log that cannot be quarantined is an
// error. Either repair is recorded in Recovery.
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
	durable.RemoveTemp(cfg.StateDir)
	data, err := os.ReadFile(checkpointPath(cfg.StateDir))
	if os.IsNotExist(err) {
		return e, nil
	}
	if err != nil {
		return nil, fmt.Errorf("source: read checkpoint: %w", err)
	}
	good, first, err := replayLog(data, e.replayFrame)
	if err != nil {
		// A log that cannot be moved aside is not started over: the first
		// commit would compact over it.
		dst, qerr := durable.Quarantine(cfg.StateDir, checkpointPath(cfg.StateDir))
		if qerr != nil {
			return nil, fmt.Errorf("source: checkpoint unreadable (%v) and cannot be quarantined: %w", err, qerr)
		}
		e = newEngine(cfg) // discard whatever the frames before the bad one built
		e.rec.Quarantined = append(e.rec.Quarantined, dst)
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
	e.pruneOrder()
	for _, h := range e.order {
		e.markDirty(h)
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
		hosts:   make(map[string]*hostPairs),
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
// tick. A batch whose fate the frame in flight decides waits for it (see
// awaitsFrame). Returns the number of events actually applied.
func (e *Engine) Apply(b Batch) int {
	e.mu.Lock()
	for settled := e.awaitsFrame(b.Events); settled != nil; settled = e.awaitsFrame(b.Events) {
		e.mu.Unlock()
		<-settled
		e.mu.Lock()
	}
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
		if late(e.watermark, ev.TS) {
			e.lateDropped++
			continue
		}
		k := pairKey{Src: ev.Source, Dst: ev.Destination}
		h := e.pairs[k]
		if h == nil {
			h = e.newPair(k, 0)
		}
		if len(h.ts) == h.committed {
			e.touched = append(e.touched, h)
		}
		h.add(ev.TS)
		h.addPath(ev.Path)
		h.addSource(b.Source)
		if ev.TS > e.maxTS {
			e.maxTS = ev.TS
		}
		e.markDirty(h)
		if h.shown {
			h.shown = false
			e.markHost(h.host)
		}
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

// late reports whether an event at ts falls behind the watermark wm.
func late(wm, ts int64) bool { return wm > 0 && ts <= wm }

// awaitsFrame returns the channel the frame in flight closes when it
// installs or fails if that frame decides what becomes of one of events:
// an event its watermark drops and the current one keeps, or one for a
// pair it evicts; otherwise nil. Such a batch waits for the frame, as
// every batch once waited behind a whole commit, so each of its events is
// judged against the durable watermark and store: a restart from the
// installed frame drops what the live engine dropped, and a failed frame
// changes nothing. Any other batch lands at once. e.mu must be held.
func (e *Engine) awaitsFrame(events []Event) <-chan struct{} {
	f := e.inflight
	if f == nil || (f.watermark == e.watermark && len(f.evict) == 0) {
		return nil
	}
	for _, ev := range events {
		if late(f.watermark, ev.TS) && !late(e.watermark, ev.TS) {
			return f.settled
		}
		if len(f.evict) > 0 {
			if h := e.pairs[pairKey{Src: ev.Source, Dst: ev.Destination}]; h != nil && h.evicting {
				return f.settled
			}
		}
	}
	return nil
}

// Commit makes the current state durable by writing one checkpoint frame
// (see checkpoint.go): normally the events applied since the last commit,
// appended and fsynced; when the log has doubled since its first frame,
// the whole state rewritten through the atomic rename chain. Either write
// also carries the detections ticks produced since the last commit (a
// rewrite, every detection that still covers its pair's history), so a
// restart need not compute them again. A commit with nothing new to record
// returns without touching the disk.
//
// A commit takes e.mu only to seal the frame and to install it, so Apply,
// Tick and the readers do not wait on its encoding, write or fsync. One
// frame is in flight at a time: a concurrent Commit waits for it to
// install or fail, then writes what is left.
//
//   - seal, under e.mu, once no frame is in flight: decide the
//     compaction, the evictions and the watermark, copy the header and,
//     for every pair the frame writes, the ranges of its history and
//     sample the frame holds and the detection it carries, then start a
//     new touched list and clear unsaved. A pair's history only ever grows by appending, so the
//     ranges stay valid while Apply goes on; the cost is O(frame pairs).
//   - encode, write and fsync, outside e.mu.
//   - install, under e.mu: the log length, the durable header, the
//     committed marks, the watermark and the evictions.
//
// The watermark advance (maxTS - Lateness) is computed into the frame and
// installed in memory only after the write commits, so drop decisions
// always reflect durable state and replay after a crash reproduces them
// exactly. A batch holding an event that the new watermark would drop and
// the old one keeps waits for the install (awaitsFrame); every other batch
// lands while the frame is written. A failed write installs nothing and
// marks the log suspect, which makes the next commit a full rewrite of
// whatever memory then holds.
//
// When RetainWindows is set, Commit also evicts idle pairs: any pair whose
// newest event trails the stream's high-water mark by more than
// RetainWindows lateness windows is named in the frame being written and,
// once it is installed, dropped from the in-memory store (and, at the next
// tick, from the standing analysis). A batch with an event for such a pair
// waits for the install too, after which the event starts a fresh pair,
// as any event after the commit would; a failed write keeps the pair. The
// eviction set is a pure function of the committed maxTS, so every
// recovery replays the same evictions at the same commits; and the cutoff
// never exceeds the new watermark, so an evicted pair's events would be
// dropped as late on replay anyway.
func (e *Engine) Commit() error {
	f, err := e.seal()
	if f == nil || err != nil {
		return err
	}
	installed := false
	defer func() {
		// Also run when the write panics, so no batch waits on a frame
		// that never settles.
		if !installed {
			e.failed(f)
		}
	}()
	frame, err := f.encode()
	if err == nil {
		if f.full {
			err = writeCheckpoint(e.cfg.StateDir, frame)
		} else {
			err = appendCheckpoint(e.cfg.StateDir, frame, f.at)
		}
	}
	if err != nil {
		return err
	}
	installed = true
	e.install(f, int64(len(frame)))
	// Post-commit crash point: everything after this line is observable
	// only in memory.
	_ = faultinject.Check(faultinject.PointSourceCommitDone, "checkpoint")
	return nil
}

// seal captures the next frame and marks the pairs it evicts; nil when
// there is nothing to record. One frame is in flight at a time: seal
// first waits, with e.mu released, for the one in flight to install or
// fail, so a frame always follows the one before it in the log.
func (e *Engine) seal() (*frameSeal, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.inflight != nil {
		settled := e.inflight.settled
		e.mu.Unlock()
		<-settled
		e.mu.Lock()
	}
	if !e.suspect && len(e.touched) == 0 && len(e.unsaved) == 0 && e.maxTS == e.durable.maxTS &&
		e.lateDropped == e.durable.lateDropped && maps.Equal(e.pos, e.durable.pos) {
		// No new event or detection and no header movement. That also rules
		// out a new eviction: the cutoff moves only with maxTS.
		return nil, nil
	}
	f := &frameSeal{
		full:      e.logLen == 0 || e.suspect || e.logLen-e.firstLen >= e.firstLen,
		at:        e.logLen,
		hdr:       durableHeader{pos: maps.Clone(e.pos), maxTS: e.maxTS, lateDropped: e.lateDropped},
		watermark: e.watermark,
		detFP:     e.detFP,
		uncommit:  e.uncommit,
	}
	if e.cfg.Lateness > 0 && e.maxTS-e.cfg.Lateness > f.watermark {
		f.watermark = e.maxTS - e.cfg.Lateness
	}
	if e.cfg.RetainWindows > 0 {
		// Pre-plan crash point: dying here loses nothing (no state has
		// changed, the commit just fails).
		if err := faultinject.Check(faultinject.PointSourceCompactPlan, "compact"); err != nil {
			return nil, fmt.Errorf("source: compact: %w", err)
		}
		cutoff := e.maxTS - int64(e.cfg.RetainWindows)*e.cfg.Lateness
		for _, h := range e.pairs {
			if h.maxTS <= cutoff {
				h.evicting = true
				f.evict = append(f.evict, h)
			}
		}
		sortPairs(f.evict)
	}
	f.evictedCount = e.evictedCount + int64(len(f.evict))

	// A delta frame holds the touched pairs' new events, sample entries and
	// sources in the order the pairs were first touched, and the unsaved
	// detections. A snapshot is a delta from empty: every surviving pair in
	// full with its detection, in creation order. It merges the log with
	// what is uncommitted, so it is about their size.
	if f.full || 2*e.gone > len(e.order) {
		e.pruneOrder()
	}
	if f.full {
		f.sizeHint = e.logLen + eventSizeHint*e.uncommit
		f.pairs = slices.Grow(e.pairBuf, len(e.order))
		for _, h := range e.order {
			if h.evicting {
				continue
			}
			f.pairs = append(f.pairs, pairDelta{h: h, ts: h.ts, paths: h.paths, srcs: h.srcs})
			if det := h.detection(); det != nil {
				f.dets = append(f.dets, pairDet{h: h, det: det, n: h.detN})
			}
		}
	} else {
		f.sizeHint = touchedSizeHint*int64(len(e.touched)) + eventSizeHint*e.uncommit
		f.pairs = slices.Grow(e.pairBuf, len(e.touched))
		for _, h := range e.touched {
			if !h.evicting {
				f.pairs = append(f.pairs, pairDelta{h: h, ts: h.ts[h.committed:],
					paths: h.paths[h.committedPaths:], srcs: h.srcs[h.committedSrcs:]})
			}
		}
		detected := make([]*pairHistory, 0, len(e.unsaved))
		for k := range e.unsaved {
			if h := e.pairs[k]; h != nil && !h.evicting && h.detection() != nil {
				detected = append(detected, h)
			}
		}
		sortPairs(detected)
		for _, h := range detected {
			f.dets = append(f.dets, pairDet{h: h, det: h.det, n: h.detN})
		}
		f.sizeHint += detectionSizeHint * int64(len(detected))
	}
	clear(e.touched) // drop the pointers, so an evicted pair is not kept alive
	e.touched = e.touched[:0]
	clear(e.unsaved)
	f.settled = make(chan struct{})
	e.inflight = f
	return f, nil
}

// install records a sealed frame of n bytes as written: the log length,
// the durable header, the committed marks, the watermark and the
// evictions.
func (e *Engine) install(f *frameSeal, n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f.full {
		e.logLen, e.firstLen, e.suspect = n, n, false
		e.compactions++
	} else {
		e.logLen += n
	}
	e.commits++
	e.commitBytes += n
	for _, p := range f.pairs {
		h := p.h
		base, basePaths, baseSrcs := h.committed, h.committedPaths, h.committedSrcs
		if f.full {
			base, basePaths, baseSrcs = 0, 0, 0
		}
		end := base + len(p.ts)
		// Apply lists a pair as touched when it gains an event with
		// nothing past its mark. One the frame moved the mark of had new
		// events all through the write, so Apply never listed it: it is
		// listed here if it gained more meanwhile.
		if end > h.committed && len(h.ts) > end {
			e.touched = append(e.touched, h)
		}
		h.committed, h.committedPaths, h.committedSrcs = end, basePaths+len(p.paths), baseSrcs+len(p.srcs)
	}
	e.durable = f.hdr
	e.watermark = f.watermark
	e.uncommit -= f.uncommit
	for _, h := range f.evict {
		e.evicted = append(e.evicted, pipeline.PairRef{Source: h.key.Src, Destination: h.key.Dst})
		e.drop(h)
	}
	e.evictedCount = f.evictedCount
	e.settle(f)
	if len(f.evict) > 0 {
		// Post-eviction crash point: the frame naming the evictions is
		// durable and the in-memory store already dropped the pairs.
		_ = faultinject.Check(faultinject.PointSourceEvictApply, "evict")
	}
}

// failed settles a sealed frame that was not written: it keeps the pairs
// the frame would have evicted, marks the log suspect, so the next commit
// rewrites the whole state, and forgets a detection the frame could not
// encode, so that rewrite goes through and the pair is detected afresh.
func (e *Engine) failed(f *frameSeal) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.suspect = true
	for _, h := range f.evict {
		h.evicting = false
	}
	if b := f.bad; b.h != nil && b.h.det == b.det {
		b.h.det, b.h.detN = nil, 0
	}
	e.settle(f)
}

// settle ends f's flight, hands its pair entries back for the next seal
// and releases what waits on it; e.mu must be held.
func (e *Engine) settle(f *frameSeal) {
	clear(f.pairs) // drop the pointers, so an evicted pair is not kept alive
	e.pairBuf = f.pairs[:0]
	e.inflight = nil
	close(f.settled)
}

// rememberDurable records the current header as committed; e.mu must be
// held.
func (e *Engine) rememberDurable() {
	clear(e.durable.pos)
	maps.Copy(e.durable.pos, e.pos)
	e.durable.maxTS, e.durable.lateDropped = e.maxTS, e.lateDropped
}

// newPair creates the pair k with room for events timestamps and appends
// it to the creation order; e.mu must be held.
func (e *Engine) newPair(k pairKey, events int) *pairHistory {
	h := &pairHistory{key: k, ts: make([]int64, 0, events)}
	e.pairs[k] = h
	e.order = append(e.order, h)
	return h
}

// markDirty queues h for the next tick, once however many events it gains
// meanwhile; e.mu must be held.
func (e *Engine) markDirty(h *pairHistory) {
	if !h.dirty {
		h.dirty = true
		e.dirty = append(e.dirty, h)
	}
}

// markHost queues hp for the next publish's rebuild; e.mu must be held.
func (e *Engine) markHost(hp *hostPairs) {
	if !hp.changed {
		hp.changed = true
		e.changedHosts = append(e.changedHosts, hp)
	}
}

// drop removes an evicted pair from the store and releases its history, so
// the order, dirty and host lists that still point at it keep only the
// husk until they shed it; e.mu must be held.
func (e *Engine) drop(h *pairHistory) {
	e.events -= int64(len(h.ts))
	delete(e.pairs, h.key)
	h.gone = true
	h.ts, h.paths, h.srcs, h.det, h.detN = nil, nil, nil, nil, 0
	e.gone++
	if h.host != nil {
		e.markHost(h.host)
	}
}

// pruneOrder sheds evicted pairs from the creation order, keeping the
// publisher's cursor on the first pair it has not filed; e.mu must be
// held.
func (e *Engine) pruneOrder() {
	if e.gone == 0 {
		return
	}
	kept, indexed := e.order[:0], 0
	for i, h := range e.order {
		if h.gone {
			continue
		}
		if i < e.indexed {
			indexed++
		}
		kept = append(kept, h)
	}
	clear(e.order[len(kept):])
	e.order, e.indexed, e.gone = kept, indexed, 0
}

// comparePairKeys orders pair keys by (src, dst): the order of evict and
// detected lists and of the tick's dirty pairs.
func comparePairKeys(a, b pairKey) int {
	return cmp.Or(strings.Compare(a.Src, b.Src), strings.Compare(a.Dst, b.Dst))
}

func sortPairs(pairs []*pairHistory) {
	slices.SortFunc(pairs, func(a, b *pairHistory) int { return comparePairKeys(a.key, b.key) })
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
	if err := faultinject.Check(faultinject.PointSourceDetectTick, "tick"); err != nil {
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
	// An evicted pair leaves the list here; the removals below already
	// unwind it from the standing analysis.
	dirty := slices.DeleteFunc(e.dirty, func(h *pairHistory) bool { return h.gone })
	e.dirty = dirty
	// Only the pairs past filter 1 are sorted and summarized: the rest
	// reach the standing analysis as counts.
	summarize, listed := e.partitionListed(dirty)
	sortPairs(summarize)
	changed := make([]*timeseries.ActivitySummary, 0, len(summarize))
	known := make([]*core.Result, 0, len(summarize))
	for _, h := range summarize {
		as, err := e.buildSummary(h)
		if err != nil {
			// No mark is consumed: the pairs before this one stay dirty.
			e.mu.Unlock()
			return nil, err
		}
		changed = append(changed, as)
		known = append(known, h.detection())
	}
	var counted []ingest.PairCount
	if len(listed) > 0 {
		counted = make([]ingest.PairCount, len(listed))
		for j, h := range listed {
			counted[j] = ingest.PairCount{Source: h.key.Src, Destination: h.key.Dst, Events: len(h.ts)}
		}
	}
	for _, h := range dirty {
		h.dirty = false
	}
	e.dirty = nil
	removed := e.evicted
	e.evicted = nil
	stale := e.staleLocked()
	tick := e.ticks + 1
	e.mu.Unlock()

	res, err := e.inc.TickWithDetections(ctx, changed, known, counted, removed)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		// The delta was consumed even though the tick failed; re-dirty the
		// changed pairs and re-queue the removals so the next tick retries
		// the same delta instead of silently dropping it.
		for _, h := range dirty {
			if !h.gone {
				e.markDirty(h)
			}
		}
		e.evicted = append(removed, e.evicted...)
		return nil, err
	}
	e.ticks = tick
	e.recordDetections(res)
	return &TickResult{Result: res, Dirty: len(dirty), Detected: res.Detected, Stale: stale, Tick: tick}, nil
}

// partitionListed reorders pairs in place so that those to destinations
// the global whitelist does not list come first, and returns the two
// parts; e.mu must be held.
func (e *Engine) partitionListed(pairs []*pairHistory) (unlisted, listed []*pairHistory) {
	global := e.cfg.Pipeline.Global
	if global == nil {
		return pairs, nil
	}
	n := 0
	for j, h := range pairs {
		if !global.Contains(h.key.Dst) {
			pairs[n], pairs[j] = pairs[j], pairs[n]
			n++
		}
	}
	return pairs[:n], pairs[n:]
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
// With every source healthy it answers without walking the store.
func (e *Engine) staleLocked() []pipeline.PairRef {
	if !e.unhealthyLocked() {
		return nil
	}
	var stale []pipeline.PairRef
	for k, h := range e.pairs {
		if e.pairStaleLocked(h) {
			stale = append(stale, pipeline.PairRef{Source: k.Src, Destination: k.Dst})
		}
	}
	slices.SortFunc(stale, func(a, b pipeline.PairRef) int {
		return comparePairKeys(pairKey{Src: a.Source, Dst: a.Destination}, pairKey{Src: b.Source, Dst: b.Destination})
	})
	return stale
}

// unhealthyLocked reports whether any tracked source is currently
// unhealthy, in O(sources); e.mu must be held.
func (e *Engine) unhealthyLocked() bool {
	for _, healthy := range e.health {
		if !healthy {
			return true
		}
	}
	return false
}

// pairStaleLocked reports whether any source of the pair is currently
// unhealthy; e.mu must be held. Callers walking many pairs consult
// unhealthyLocked once first.
func (e *Engine) pairStaleLocked(h *pairHistory) bool {
	for _, name := range h.srcs {
		if healthy, tracked := e.health[name]; tracked && !healthy {
			return true
		}
	}
	return false
}

// buildSummary materializes one pair's ActivitySummary; e.mu must be held.
// The summary shares the pair's path sample instead of copying it: the
// sample only ever grows by appending, a summary is never modified once
// Tick has it, and the slice is handed over at full capacity, so an append
// on either side reallocates rather than writing into the other's view.
func (e *Engine) buildSummary(h *pairHistory) (*timeseries.ActivitySummary, error) {
	as, err := timeseries.FromTimestamps(h.key.Src, h.key.Dst, h.ts, e.cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("source: summarize %s: %w", h.key, err)
	}
	as.URLPaths = h.paths[:len(h.paths):len(h.paths)]
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

// timelineEntryLocked builds one pair's timeline entry; unhealthy is
// unhealthyLocked's answer, taken once per walk. e.mu must be held.
func (e *Engine) timelineEntryLocked(h *pairHistory, unhealthy bool) TimelineEntry {
	return TimelineEntry{Destination: h.key.Dst, Events: len(h.ts), First: h.minTS, Last: h.maxTS,
		Stale: unhealthy && e.pairStaleLocked(h)}
}

// byDestination orders one host's timeline entries.
func byDestination(a, b TimelineEntry) int { return strings.Compare(a.Destination, b.Destination) }

// Timelines returns every host's timeline, materialized from the whole
// store in one pass. It is the reference the daemon's incremental publish
// (publishTimelines) must equal, and what bench's traced `driver` times as
// its publish step; the daemon itself never calls it.
func (e *Engine) Timelines() map[string][]TimelineEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]TimelineEntry)
	unhealthy := e.unhealthyLocked()
	for k, h := range e.pairs {
		if len(h.ts) == 0 {
			continue
		}
		out[k.Src] = append(out[k.Src], e.timelineEntryLocked(h, unhealthy))
	}
	for _, entries := range out {
		slices.SortFunc(entries, byDestination)
	}
	return out
}

// publishTimelines returns the next query generation's host timelines:
// prev, the map the previous call returned, with the hosts whose pairs
// changed since then rebuilt from the live store and every other host's
// slice shared. rebuilt names the hosts whose slices are new (a host left
// with no pair is absent from the map); only those may be written, and
// only before the map is published. Every host is rebuilt when prev is nil
// or when a source is unhealthy now or was at the previous call, since
// stale marks follow health rather than pair changes. The engine keeps one
// publisher's marks: prev must be nil or the previous call's result.
func (e *Engine) publishTimelines(prev map[string][]TimelineEntry) (next map[string][]TimelineEntry, rebuilt []string) {
	// The copy of the shared slice headers is O(hosts) and reads nothing
	// of the engine's, so it is made before taking the lock.
	next = maps.Clone(prev)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, h := range e.order[e.indexed:] {
		if h.gone {
			continue
		}
		hp := e.hosts[h.key.Src]
		if hp == nil {
			hp = &hostPairs{name: h.key.Src}
			e.hosts[hp.name] = hp
		}
		hp.pairs = append(hp.pairs, h)
		h.host = hp
		e.markHost(hp)
	}
	e.indexed = len(e.order)

	unhealthy := e.unhealthyLocked()
	hosts := e.changedHosts
	if next == nil || unhealthy || e.pubUnhealthy {
		next = make(map[string][]TimelineEntry, len(e.hosts))
		hosts = hosts[:0]
		for _, hp := range e.hosts {
			hosts = append(hosts, hp)
		}
	}
	e.pubUnhealthy = unhealthy
	rebuilt = make([]string, 0, len(hosts))
	for _, hp := range hosts {
		hp.changed = false
		hp.pairs = slices.DeleteFunc(hp.pairs, func(h *pairHistory) bool { return h.gone })
		if len(hp.pairs) == 0 {
			delete(e.hosts, hp.name)
			delete(next, hp.name)
			continue
		}
		entries := make([]TimelineEntry, len(hp.pairs))
		for i, h := range hp.pairs {
			h.shown = true
			entries[i] = e.timelineEntryLocked(h, unhealthy)
		}
		slices.SortFunc(entries, byDestination)
		next[hp.name] = entries
		rebuilt = append(rebuilt, hp.name)
	}
	clear(hosts)
	e.changedHosts = hosts[:0]
	return next, rebuilt
}
