// Package opsloop implements BAYWATCH's deployment mode (Sect. X of the
// paper): iterative operation at three time scales. The operator feeds it
// one day of traffic at a time; the loop
//
//   - runs the daily pipeline (fine granularity, catches minute-level
//     beaconing) with a persistent novelty store so repeat cases are not
//     re-reported,
//   - accumulates each day's ActivitySummaries in an on-disk store, and
//   - when enough history has accumulated, rescales and merges it into
//     weekly and monthly passes at coarser granularity, catching
//     slow beacons (e.g. 24-hour check-ins) no single day can expose —
//     without ever reprocessing raw logs.
//
// All state lives under a single directory and every ingested day is
// committed through a write-ahead manifest (see manifest.go), so a
// crashed or restarted operator resumes from the last committed day:
// partially persisted days are quarantined and re-ingested, and the
// novelty store never runs ahead of the recorded history.
package opsloop

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"baywatch/internal/novelty"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// Config assembles the loop.
type Config struct {
	// StateDir holds the manifest, the novelty snapshots and the summary
	// history.
	StateDir string
	// Pipeline configures the daily runs. Its Novelty field is managed by
	// the loop and must be left nil.
	Pipeline pipeline.Config
	// WeeklyEvery runs a weekly coarse pass after every n ingested days
	// (default 7); MonthlyEvery likewise (default 30).
	WeeklyEvery, MonthlyEvery int
	// WeeklyScale and MonthlyScale are the coarse granularities in seconds
	// (defaults 60 and 300).
	WeeklyScale, MonthlyScale int64
	// MinEventsCoarse skips pairs with fewer events in coarse passes
	// (default 8: the detector's sampling floor).
	MinEventsCoarse int
	// Logf receives recovery warnings (quarantined files, adopted legacy
	// state); nil discards them. Warnings are also available from
	// Loop.Recovery.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.WeeklyEvery <= 0 {
		c.WeeklyEvery = 7
	}
	if c.MonthlyEvery <= 0 {
		c.MonthlyEvery = 30
	}
	if c.WeeklyScale <= 0 {
		c.WeeklyScale = 60
	}
	if c.MonthlyScale <= 0 {
		c.MonthlyScale = 300
	}
	if c.MinEventsCoarse <= 0 {
		c.MinEventsCoarse = 8
	}
	return c
}

// Report is the outcome of ingesting one day.
type Report struct {
	// Daily is the day's pipeline result.
	Daily *pipeline.Result
	// Weekly and Monthly are the coarse passes' results (nil on days when
	// no coarse pass ran).
	Weekly, Monthly *pipeline.Result
	// DaysIngested is the loop's lifetime day counter.
	DaysIngested int
}

// Loop is the stateful operator. It is not safe for concurrent use; run
// one loop per state directory.
type Loop struct {
	cfg     Config
	store   *novelty.Store
	days    int
	corr    *proxylog.Correlator
	history []*timeseries.ActivitySummary
	man     *manifest
	rec     Recovery
}

// New opens (or initializes) the loop state under cfg.StateDir,
// recovering from any partially committed ingest: the day counter is
// reconciled from the manifest, corrupt or uncommitted day files are
// quarantined under StateDir/quarantine/ with a logged warning, and the
// novelty store is restored from the last committed snapshot. corr may
// be nil to identify sources by IP.
func New(cfg Config, corr *proxylog.Correlator) (*Loop, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("opsloop: StateDir is required")
	}
	if cfg.Pipeline.Novelty != nil {
		return nil, fmt.Errorf("opsloop: Pipeline.Novelty is managed by the loop; leave it nil")
	}
	if err := os.MkdirAll(historyDir(cfg.StateDir), 0o755); err != nil {
		return nil, fmt.Errorf("opsloop: state dir: %w", err)
	}
	l := &Loop{cfg: cfg, corr: corr}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

func historyDir(dir string) string { return filepath.Join(dir, "summaries") }

// DaysIngested returns the lifetime day counter (committed days only,
// including days restored from disk).
func (l *Loop) DaysIngested() int { return l.days }

// Recovery reports what New found and repaired while opening the state
// directory.
func (l *Loop) Recovery() Recovery { return l.rec }

// IngestDay processes one day of records: daily pipeline, history
// accumulation, any due coarse passes, and a durable commit of the day.
// On error the loop's in-memory state is rolled back to the last
// committed day, so the same day can be retried; after a crash, a fresh
// New recovers to the same place and the day is re-ingested.
func (l *Loop) IngestDay(ctx context.Context, records []*proxylog.Record) (*Report, error) {
	snap := l.store.Clone()
	prevHist := len(l.history)
	rep, err := l.ingestDay(ctx, records)
	if err != nil {
		l.store = snap
		l.history = l.history[:prevHist]
		return nil, err
	}
	return rep, nil
}

func (l *Loop) ingestDay(ctx context.Context, records []*proxylog.Record) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("opsloop: ingest: %w", context.Cause(ctx))
	}
	day := l.days + 1
	cfg := l.cfg.Pipeline
	cfg.Novelty = l.store

	daily, sums, err := pipeline.RunWithSummaries(ctx, records, l.corr, cfg)
	if err != nil {
		return nil, fmt.Errorf("opsloop: daily run: %w", err)
	}
	return l.finishDay(ctx, day, daily, sums)
}

// IngestDayShards is IngestDay over sharded log sources: the day's
// records are scanned by the streaming ingest layer (pipeline.RunStream)
// instead of a materialized record slice. Rollback, coarse-pass and
// commit semantics are identical to IngestDay.
func (l *Loop) IngestDayShards(ctx context.Context, shards []proxylog.Split, opt pipeline.StreamOptions) (*Report, error) {
	snap := l.store.Clone()
	prevHist := len(l.history)
	rep, err := l.ingestDayShards(ctx, shards, opt)
	if err != nil {
		l.store = snap
		l.history = l.history[:prevHist]
		return nil, err
	}
	return rep, nil
}

func (l *Loop) ingestDayShards(ctx context.Context, shards []proxylog.Split, opt pipeline.StreamOptions) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("opsloop: ingest: %w", context.Cause(ctx))
	}
	day := l.days + 1
	cfg := l.cfg.Pipeline
	cfg.Novelty = l.store

	daily, sums, err := pipeline.RunStreamSummaries(ctx, shards, l.corr, cfg, opt)
	if err != nil {
		return nil, fmt.Errorf("opsloop: daily run: %w", err)
	}
	return l.finishDay(ctx, day, daily, sums)
}

// finishDay is the shared back half of a day's ingest: history
// accumulation, any due coarse passes, and the durable commit. sums are
// the summaries the daily run itself extracted, so the history inherits
// the run's per-pair event cap: one pathological pair cannot bloat the
// history store either.
func (l *Loop) finishDay(ctx context.Context, day int, daily *pipeline.Result, sums []*timeseries.ActivitySummary) (*Report, error) {
	if len(daily.Truncated) > 0 && l.cfg.Logf != nil {
		l.cfg.Logf("opsloop: day %d: %d pair(s) truncated to the per-pair event cap in history", day, len(daily.Truncated))
	}
	l.history = append(l.history, sums...)

	var err error
	rep := &Report{Daily: daily, DaysIngested: day}
	if day%l.cfg.WeeklyEvery == 0 {
		rep.Weekly, err = l.coarsePass(ctx, l.cfg.WeeklyScale)
		if err != nil {
			return nil, fmt.Errorf("opsloop: weekly pass: %w", err)
		}
	}
	if day%l.cfg.MonthlyEvery == 0 {
		rep.Monthly, err = l.coarsePass(ctx, l.cfg.MonthlyScale)
		if err != nil {
			return nil, fmt.Errorf("opsloop: monthly pass: %w", err)
		}
	}

	// Durable commit: day file → novelty snapshot → manifest. The day's
	// summaries are persisted before the novelty store, so a crash
	// between the two re-reports at worst — committing novelty first
	// would suppress alerts for a day that was never recorded.
	if err := l.commitDay(day, sums); err != nil {
		return nil, err
	}
	l.days = day
	return rep, nil
}

// coarsePass rescales and merges the accumulated history to the given
// granularity and runs detection + indication analysis over pairs with
// enough events. The coarse pass shares the in-memory novelty store (the
// ingest commit persists it), so a slow beacon already reported by a
// daily run is not re-reported. Both steps run under the pipeline's
// guard; pairs the rescale-merge drops within the failure budget are
// counted in Stats.FailedPairs and degrade the pass.
func (l *Loop) coarsePass(ctx context.Context, scale int64) (*pipeline.Result, error) {
	merged, failed, err := pipeline.RescaleAndMerge(ctx, l.history, scale, l.cfg.Pipeline.Guard)
	if err != nil {
		return nil, err
	}
	// Reconstruct pair events from the merged summaries so the standard
	// pipeline front end (whitelists, popularity) applies at coarse scale.
	var events []pipeline.PairEvent
	for _, as := range merged {
		if as.EventCount() < l.cfg.MinEventsCoarse {
			continue
		}
		path := ""
		if len(as.URLPaths) > 0 {
			path = as.URLPaths[0]
		}
		for _, ts := range as.Timestamps() {
			events = append(events, pipeline.PairEvent{
				Source:      as.Source,
				Destination: as.Destination,
				Timestamp:   ts,
				Path:        path,
			})
		}
	}
	cfg := l.cfg.Pipeline
	cfg.Novelty = l.store
	cfg.Scale = scale
	res, err := pipeline.RunEvents(ctx, events, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.FailedPairs += failed
	res.Degraded = res.Degraded || failed > 0
	return res, nil
}

// HistoryPairs reports how many summaries are currently held.
func (l *Loop) HistoryPairs() int { return len(l.history) }
