package source

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DaemonConfig assembles the always-on daemon.
type DaemonConfig struct {
	// Engine configures the state store and detection (state dir, scale,
	// lateness, pipeline).
	Engine Config
	// Connectors are the live sources to supervise; at least one, with
	// unique names.
	Connectors []Connector
	// TickInterval is the longest a dirty pair waits for a tick when no
	// source reports catching up (default 30s), and the cadence at which
	// /status republishes while nothing is dirty. A source that delivered
	// events and then reports it has caught up (Sink.Alive) starts a tick
	// sooner, once the loop has rested as long as the previous tick took.
	TickInterval time.Duration
	// CommitEvery requests a checkpoint once this many applied events are
	// uncommitted (default 5000; <0 disables count-based commits). The
	// daemon loop takes the checkpoint, so a connector does not wait on it;
	// a connector that gets twice this far ahead while the request is
	// pending commits inline, which bounds uncommitted events at
	// 2×CommitEvery plus one batch. Every clock tick commits too, whatever
	// the count.
	CommitEvery int
	// QueryAddr serves the query endpoint when non-empty (e.g.
	// "127.0.0.1:8478").
	QueryAddr string
	// CasefilePath, when non-empty, points at a casefile labels file (see
	// internal/casefile); /ranked entries and /host timelines then carry
	// each pair's analyst verdict ("benign"/"malicious"). The file is
	// re-read when its mtime or size changes, at most once per tick
	// generation.
	CasefilePath string
	// MaxQueries bounds concurrent query requests; a request that finds
	// every slot taken is shed with 503 at once (default 16, <0
	// unlimited).
	MaxQueries int
	// StallTimeout enables stall detection: a connector run that goes
	// this long without a delivery or an Alive call is cancelled and
	// restarted. Each run arms its own timer. 0 disables.
	StallTimeout time.Duration
	// RetryBase/RetryMax bound the reconnect backoff (defaults
	// 100ms/15s).
	RetryBase, RetryMax time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// source's circuit (default 5); BreakerCooldown the retry cadence
	// while open (default 30s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Logf receives operational notes; nil discards them.
	Logf func(format string, args ...any)
}

func (c DaemonConfig) withDefaults() DaemonConfig {
	if c.TickInterval <= 0 {
		c.TickInterval = 30 * time.Second
	}
	if c.CommitEvery == 0 {
		c.CommitEvery = 5000
	}
	if c.MaxQueries == 0 {
		c.MaxQueries = 16
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Daemon is the always-on streaming service: supervised connectors feed
// the engine, a loop drives the commit/tick cadence, and the query
// endpoint serves the latest results.
type Daemon struct {
	cfg  DaemonConfig
	eng  *Engine
	sups []*supervisor

	querySlots chan struct{} // one per admitted query; nil when unlimited
	queryBound atomic.Value  // of string

	snap         atomic.Pointer[TickResult]
	tickFailures atomic.Int64
	commitFails  atomic.Int64
	// commitReq carries maybeCommit's checkpoint requests to Run's loop;
	// one slot, so a pending request absorbs the rest.
	commitReq chan struct{}
	// caughtUp carries the supervisors' caught-up reports (a source that
	// delivered events has handed over everything it read) to Run's loop,
	// where they start an on-demand tick; one slot, like commitReq.
	caughtUp chan struct{}

	// Query-layer state: every tick generation publishes one immutable
	// querySnapshot that the handlers serve without touching the engine;
	// gen is the monotonically increasing generation number (the ETag).
	gen   atomic.Int64
	qsnap atomic.Pointer[querySnapshot]
	cases caseLabelCache
}

// NewDaemon opens the engine (running checkpoint recovery) and prepares
// the supervisors. Call Run to start.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Connectors) == 0 {
		return nil, fmt.Errorf("source: at least one connector is required")
	}
	seen := make(map[string]bool)
	for _, c := range cfg.Connectors {
		if seen[c.Name()] {
			return nil, fmt.Errorf("source: duplicate connector name %q", c.Name())
		}
		seen[c.Name()] = true
	}
	eng, err := OpenEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	d := &Daemon{cfg: cfg, eng: eng, commitReq: make(chan struct{}, 1), caughtUp: make(chan struct{}, 1)}
	if cfg.MaxQueries > 0 {
		d.querySlots = make(chan struct{}, cfg.MaxQueries)
	}
	for _, c := range cfg.Connectors {
		d.sups = append(d.sups, newSupervisor(d, c))
	}
	// Publish generation 1 so the query handlers never see a nil snapshot
	// (recovered engine state is visible before the first tick).
	d.publishQuerySnapshot()
	return d, nil
}

// Engine exposes the daemon's engine (positions, stats, timelines).
func (d *Daemon) Engine() *Engine { return d.eng }

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// Snapshot returns the latest completed tick (nil before the first).
func (d *Daemon) Snapshot() *TickResult { return d.snap.Load() }

// Degraded reports whether the daemon has shed or lost work: a failed
// tick or commit, or a source with its circuit currently open. The state
// clears as the causes recover (circuits close); tick/commit failures
// latch until restart.
func (d *Daemon) Degraded() bool {
	if d.tickFailures.Load() > 0 || d.commitFails.Load() > 0 {
		return true
	}
	for _, s := range d.sups {
		if !s.status().Healthy {
			return true
		}
	}
	return false
}

// maybeCommit asks Run's loop for a checkpoint once CommitEvery events are
// uncommitted, without waiting for it; called from connector sinks after
// every applied batch. A connector that reaches twice that while the
// request is still pending — the loop is ticking, or its commit is slow —
// commits inline, so uncommitted events stay under 2×CommitEvery plus one
// batch.
func (d *Daemon) maybeCommit() {
	if d.cfg.CommitEvery <= 0 {
		return
	}
	switch n, every := d.eng.Uncommitted(), int64(d.cfg.CommitEvery); {
	case n >= 2*every:
		// Waits for a commit in flight, then writes what is left.
		d.commit()
	case n >= every:
		select {
		case d.commitReq <- struct{}{}:
		default: // a request is already pending
		}
	}
}

// commit checkpoints, degrading (not dying) on failure: a full disk or
// I/O error costs durability of the window since the last good commit,
// which the sources can replay, and the next commit retries.
func (d *Daemon) commit() {
	if err := d.eng.Commit(); err != nil {
		d.commitFails.Add(1)
		d.logf("commit failed: %v", err)
	}
}

// Run starts the supervisors and drives the commit/tick cadence — the
// ticks and the connectors' count-triggered commit requests — until ctx
// ends; it then drains the connectors, takes a final commit, and returns.
//
// A tick starts on demand when a source that delivered events reports it
// has caught up and pairs are dirty (or evictions wait), so a line is
// ranked one follower wake and one tick body after it was written, not at
// the next TickInterval edge. An on-demand tick starts no sooner after the
// previous tick ended than that tick took, so ticking takes at most half
// the loop's time however fast reports come. A backlog being drained
// reports nothing until its end and ticks on the clock alone; TickInterval
// stays the bound for sources that never report catching up.
// The restart tick and clock ticks commit right after they publish, so
// TickInterval is also the commit clock; an on-demand tick does not
// commit, and the CommitEvery commits and the next clock tick save what it
// applied and detected.
// The daemon's crash contract does not depend on the drain — a SIGKILL at
// any instant loses only uncommitted events, which the checkpointed
// positions let the sources replay.
func (d *Daemon) Run(ctx context.Context) error {
	stopQuery, err := d.startQueryServer(ctx)
	if err != nil {
		return err
	}
	defer stopQuery()

	// After a restart every recovered pair is dirty: analyze them at once
	// instead of idling a full TickInterval before the first ranking.
	// Decide before the supervisors start, so a connector's first
	// delivery cannot pass for recovered state.
	restored := d.eng.Stats().Pairs > 0

	var wg sync.WaitGroup
	for _, s := range d.sups {
		wg.Add(1)
		sup := s
		// The supervisor restarts its connector until ctx ends; wg.Wait
		// below bounds its lifetime.
		//bw:guarded supervisor loop stall-times each connector run and exits with ctx
		go func() {
			defer wg.Done()
			sup.supervise(ctx)
		}()
	}

	// rested is when an on-demand tick may next start: the previous tick's
	// end plus its duration. pace is the one timer that holds a waiting
	// tick back until then; paceC is its channel while armed, nil
	// otherwise.
	var rested time.Time
	pace := time.NewTimer(time.Hour)
	pace.Stop()
	defer pace.Stop()
	var paceC <-chan time.Time
	paced := func() {
		start := time.Now()
		d.runTick(ctx)
		end := time.Now()
		rested = end.Add(end.Sub(start))
	}
	tickAndCommit := func() {
		// Publish first, then checkpoint: the fsync stays off the path
		// from an applied event to /ranked, and the commit saves the
		// tick's fresh detections in the same loop turn.
		paced()
		d.commit()
	}
	// An on-demand tick leaves its events and detections to the count and
	// clock tick commits: it may run many times a second, and a commit
	// after each would hold the loop for an fsync of a few dozen events.
	onDemand := func() {
		if !d.eng.pending() {
			return
		}
		if wait := time.Until(rested); wait > 0 {
			if paceC == nil {
				pace.Reset(wait)
				paceC = pace.C
			}
			return
		}
		paced()
	}

	if restored {
		tickAndCommit()
	}

	tick := time.NewTicker(d.cfg.TickInterval)
	defer tick.Stop()
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-d.commitReq:
			// A tick's commit or an inline one may have come first.
			if d.eng.Uncommitted() >= int64(d.cfg.CommitEvery) {
				d.commit()
			}
		case <-d.caughtUp:
			onDemand()
		case <-paceC:
			paceC = nil
			onDemand()
		case <-tick.C:
			tickAndCommit()
		}
	}

	wg.Wait()
	// Final checkpoint so a clean shutdown loses nothing; the connectors
	// have stopped, so the state is quiescent.
	d.commit()
	return nil
}

// runTick executes one incremental detection pass and publishes a new
// query generation; a failed tick degrades (the previous tick snapshot
// stays current) rather than stopping the daemon. The query snapshot is
// republished on every tick, on demand or on the clock, so /status
// reflects current engine accounting at least once per TickInterval, even
// before any pair exists.
func (d *Daemon) runTick(ctx context.Context) {
	if d.eng.Stats().Pairs > 0 {
		tr, err := d.eng.Tick(ctx)
		switch {
		case err == nil:
			d.snap.Store(tr)
			if tr.Result.Degraded {
				d.logf("tick %d degraded: %d error(s), %d truncated pair(s)",
					tr.Tick, len(tr.Result.Errors), len(tr.Result.Truncated))
			}
		case ctx.Err() != nil:
			return
		default:
			d.tickFailures.Add(1)
			d.logf("tick failed: %v", err)
		}
	}
	d.publishQuerySnapshot()
}

// pending reports whether a tick has work: a pair marked dirty or an
// eviction waiting to leave the standing analysis.
func (e *Engine) pending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.dirty) > 0 || len(e.evicted) > 0
}

// Uncommitted reports events applied since the last successful commit.
func (e *Engine) Uncommitted() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.uncommit
}
