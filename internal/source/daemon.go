package source

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/guard"
)

// DaemonConfig assembles the always-on daemon.
type DaemonConfig struct {
	// Engine configures the state store and detection (state dir, scale,
	// lateness, pipeline).
	Engine Config
	// Connectors are the live sources to supervise; at least one, with
	// unique names.
	Connectors []Connector
	// TickInterval is the incremental-detection cadence (default 30s).
	TickInterval time.Duration
	// CommitEvery checkpoints after this many applied events (default
	// 5000; <0 disables count-based commits).
	CommitEvery int
	// CommitInterval checkpoints on a timer regardless of volume (default
	// TickInterval; <0 disables timer-based commits).
	CommitInterval time.Duration
	// QueryAddr serves the query endpoint when non-empty (e.g.
	// "127.0.0.1:8478").
	QueryAddr string
	// CasefilePath, when non-empty, points at a casefile labels file (see
	// internal/casefile); /ranked entries and /host timelines then carry
	// each pair's analyst verdict ("benign"/"malicious"). The file is
	// re-read when its mtime or size changes, at most once per tick
	// generation.
	CasefilePath string
	// MaxQueries bounds concurrent query requests (guard.Semaphore
	// admission; default 16, <0 unlimited).
	MaxQueries int
	// StallTimeout enables the connector watchdog: a source silent this
	// long has its run cancelled and restarted. 0 disables.
	StallTimeout time.Duration
	// PollInterval is the watchdog scan cadence (default StallTimeout/4).
	PollInterval time.Duration
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
	if c.CommitInterval == 0 {
		c.CommitInterval = c.TickInterval
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
	wd   *guard.Watchdog
	sups []*supervisor

	querySem   *guard.Semaphore
	queryBound atomic.Value // of string

	snap         atomic.Pointer[TickResult]
	tickFailures atomic.Int64
	commitFails  atomic.Int64

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
	d := &Daemon{cfg: cfg, eng: eng}
	if cfg.MaxQueries > 0 {
		d.querySem = guard.NewSemaphore(cfg.MaxQueries)
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

// maybeCommit checkpoints when the count-based threshold is reached;
// called from connector sinks after every applied batch.
func (d *Daemon) maybeCommit() {
	if d.cfg.CommitEvery <= 0 {
		return
	}
	if d.eng.Uncommitted() >= int64(d.cfg.CommitEvery) {
		d.commit()
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

// Run starts the supervisors and drives the commit/tick cadence until ctx
// ends; it then drains the connectors, takes a final commit, and returns.
// The daemon's crash contract does not depend on the drain — a SIGKILL at
// any instant loses only uncommitted events, which the checkpointed
// positions let the sources replay.
func (d *Daemon) Run(ctx context.Context) error {
	if d.cfg.StallTimeout > 0 {
		d.wd = guard.NewWatchdog(d.cfg.StallTimeout, d.cfg.PollInterval)
		defer d.wd.Stop()
	}
	stopQuery, err := d.startQueryServer(ctx)
	if err != nil {
		return err
	}
	defer stopQuery()

	var wg sync.WaitGroup
	for _, s := range d.sups {
		wg.Add(1)
		sup := s
		// The supervisor registers a guard.Watchdog worker on entry and
		// returns when ctx ends; wg.Wait below bounds its lifetime.
		//bw:guarded supervisor loop registers a guard.Watchdog worker and exits with ctx
		go func() {
			defer wg.Done()
			sup.supervise(ctx)
		}()
	}

	// After a restart every recovered pair is dirty: analyze them now
	// instead of idling a full TickInterval before the first ranking.
	if d.eng.Stats().Pairs > 0 {
		d.commit()
		d.runTick(ctx)
	}

	tick := time.NewTicker(d.cfg.TickInterval)
	defer tick.Stop()
	var commitC <-chan time.Time
	if d.cfg.CommitInterval > 0 {
		ct := time.NewTicker(d.cfg.CommitInterval)
		defer ct.Stop()
		commitC = ct.C
	}
	for ctx.Err() == nil {
		select {
		case <-ctx.Done():
		case <-commitC:
			if d.eng.Uncommitted() > 0 {
				d.commit()
			}
		case <-tick.C:
			d.commit()
			d.runTick(ctx)
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
// republished every interval regardless, so /status reflects current
// engine accounting even before any pair exists.
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

// Uncommitted reports events applied since the last successful commit.
func (e *Engine) Uncommitted() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.uncommit
}
