// Package pipeline wires BAYWATCH's 8-step filtering methodology (Fig. 3
// of the paper) into an executable data flow over the MapReduce engine:
//
//	Phase A — whitelist analysis
//	  1. global whitelist (popular-domain suffix match)
//	  2. local whitelist (destination popularity >= τ_P)
//	Phase B — time series analysis
//	  3. periodogram analysis with permutation threshold
//	  4. pruning (min-interval, t-test, sampling rate, GMM)
//	  5. autocorrelation verification
//	Phase C — suspicious indication analysis
//	  6. URL-path token filter
//	  7. novelty filter (change detection)
//	  8. weighted ranking (language model, popularity, periodicity)
//	Phase D — investigation (see package triage)
//
// Every mode is a front half that produces per-pair activity summaries
// feeding the one back half that runs filters 1-8: Incremental (see
// incremental.go). There is one batch front half, internal/ingest's
// scatter/aggregate, entered through two adapters — record slices and
// pair events (Run, ExtractSummaries) and sharded log files (RunStream) —
// and the daemon's event store (internal/source). The one-shot entry
// points tick a fresh Incremental once with every pair changed; the daemon
// keeps one standing and ticks it with deltas. Beaconing detection and
// rescale/merge run as MapReduce jobs, mirroring the paper's modular
// Hadoop implementation; data extraction is not one (log reduction has no
// fallible per-record work to budget), and destination popularity is a
// set of counts the core maintains.
package pipeline

import (
	"baywatch/internal/faultinject"

	"context"
	"fmt"
	"sync"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/features"
	"baywatch/internal/guard"
	"baywatch/internal/ingest"
	"baywatch/internal/langmodel"
	"baywatch/internal/mapreduce"
	"baywatch/internal/novelty"
	"baywatch/internal/proxylog"
	"baywatch/internal/ranking"
	"baywatch/internal/timeseries"
	"baywatch/internal/tokenfilter"
	"baywatch/internal/whitelist"
)

// Config assembles the pipeline's components. Fields left nil/zero are
// replaced by sensible defaults at Run time, except the language model,
// which must be supplied (training it needs the popular-domain corpus).
type Config struct {
	// Scale is the time-series granularity in seconds (1 at the finest
	// level, per Sect. VII-A).
	Scale int64
	// Detector configures the periodicity detection algorithm.
	Detector core.Config
	// Global is the global whitelist (filter 1); nil disables it.
	Global *whitelist.Global
	// LocalTau is the local-whitelist popularity threshold τ_P (filter 2);
	// the paper's evaluation uses 0.01.
	LocalTau float64
	// LM scores destination names; required.
	LM *langmodel.Model
	// TokenFilter is filter 6; nil uses defaults.
	TokenFilter *tokenfilter.Filter
	// Novelty is filter 7's persistent store; nil disables novelty
	// suppression (every case is treated as new).
	Novelty *novelty.Store
	// RankPercentile is the score-distribution threshold of filter 8; the
	// paper's evaluation uses the 90th percentile.
	RankPercentile float64
	// Weights configures the ranking combination; zero value uses
	// DefaultWeights.
	Weights ranking.Weights
	// Guard bounds the run in time and memory: stage and per-candidate
	// deadlines, watchdog stall detection, in-flight admission control and
	// the per-pair event cap. The zero value disables every bound.
	// TaskTimeout, StallTimeout and FailureBudget bound the MapReduce jobs
	// (detect, and rescale-merge through RescaleAndMerge) per pair; the
	// front half is bounded by the extract stage deadline and ctx, and
	// sheds through MaxEventsPerPair.
	Guard guard.Config
	// Thresholds, when non-nil, carries memoized permutation thresholds
	// across runs: same-shape series share one cached null distribution
	// (see core.ThresholdMemo — hits are bit-identical to recomputation,
	// so sharing never changes verdicts). Nil gives each Incremental a
	// private memo, which a standing one keeps warm from tick to tick;
	// bucket-level sharing within a tick applies either way.
	Thresholds *core.ThresholdMemo
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.LocalTau <= 0 {
		c.LocalTau = 0.01
	}
	if c.RankPercentile <= 0 {
		c.RankPercentile = 90
	}
	if c.TokenFilter == nil {
		c.TokenFilter = tokenfilter.New()
	}
	if c.Weights == (ranking.Weights{}) {
		c.Weights = ranking.DefaultWeights()
	}
	return c
}

// FilterStage identifies which of the 8 filters suppressed a candidate.
type FilterStage int

const (
	// StageNone means the candidate survived every filter and was
	// reported.
	StageNone FilterStage = iota
	// StageGlobalWhitelist is filter 1.
	StageGlobalWhitelist
	// StageLocalWhitelist is filter 2.
	StageLocalWhitelist
	// StageNotPeriodic covers filters 3-5 (the detection algorithm found
	// no verified period).
	StageNotPeriodic
	// StageTokenFilter is filter 6.
	StageTokenFilter
	// StageNovelty is filter 7.
	StageNovelty
	// StageRankThreshold is filter 8's percentile cut.
	StageRankThreshold
	// StageError means the candidate failed in-flight (a detector or
	// indication-analysis error or panic) and was isolated rather than
	// aborting the run; see Result.Errors.
	StageError
)

// String implements fmt.Stringer.
func (s FilterStage) String() string {
	switch s {
	case StageNone:
		return "reported"
	case StageGlobalWhitelist:
		return "global-whitelist"
	case StageLocalWhitelist:
		return "local-whitelist"
	case StageNotPeriodic:
		return "not-periodic"
	case StageTokenFilter:
		return "token-filter"
	case StageNovelty:
		return "novelty"
	case StageRankThreshold:
		return "rank-threshold"
	case StageError:
		return "error"
	default:
		return fmt.Sprintf("FilterStage(%d)", int(s))
	}
}

// Candidate is one communication pair as it moves through the pipeline.
type Candidate struct {
	// Source and Destination identify the pair.
	Source, Destination string
	// Summary is the pair's request history.
	Summary *timeseries.ActivitySummary
	// Detection is the periodicity result (nil when whitelisted before
	// detection).
	Detection *core.Result
	// LMScore is the destination's language-model log-probability.
	LMScore float64
	// Popularity is the destination's local source-share.
	Popularity float64
	// SimilarSources is the number of distinct sources contacting the
	// destination.
	SimilarSources int
	// Token is the URL-path analysis.
	Token tokenfilter.Analysis
	// Novelty is the change-detection verdict.
	Novelty novelty.Verdict
	// Score is the weighted ranking score.
	Score float64
	// SuppressedBy reports which filter stopped the candidate
	// (StageNone when reported).
	SuppressedBy FilterStage
}

// Stats counts the pipeline's funnel, one entry per stage boundary.
type Stats struct {
	InputEvents          int
	Pairs                int
	AfterGlobalWhitelist int
	AfterLocalWhitelist  int
	Periodic             int
	AfterTokenFilter     int
	AfterNovelty         int
	Reported             int
	// Errored counts candidates isolated by in-flight failures
	// (SuppressedBy == StageError).
	Errored int
	// TruncatedPairs counts pairs shed to the per-pair event cap, and
	// DroppedEvents the events discarded across them.
	TruncatedPairs int
	DroppedEvents  int
	// FailedPairs counts the pairs the MapReduce jobs dropped within their
	// failure budget (guard.Config.FailureBudget): the run has no verdict
	// for them.
	FailedPairs int64
	// Stalls counts watchdog interventions (tasks cancelled after their
	// worker stopped making progress).
	Stalls int
	// Durations per phase.
	ExtractTime, PopularityTime, DetectTime, RankTime time.Duration
}

// CandidateError records one candidate that failed in-flight and was
// isolated instead of aborting the run.
type CandidateError struct {
	// Source and Destination identify the failed candidate.
	Source, Destination string
	// Stage is the phase that failed: "detect" (filters 3-5) or
	// "indication" (filters 6-8).
	Stage string
	// Err is the failure message (recovered panic or returned error).
	Err string
}

// Result is a pipeline run's output.
type Result struct {
	// Reported are the cases above the ranking threshold, ranked most
	// suspicious first.
	Reported []*Candidate
	// Candidates are all pairs that reached the ranking phase (including
	// suppressed ones), for diagnostics and triage training.
	Candidates []*Candidate
	// Errors lists candidates that failed in-flight; each also appears in
	// Candidates with SuppressedBy == StageError.
	Errors []CandidateError
	// Truncated lists pairs shed to the per-pair event cap; each was
	// analyzed on its kept (earliest) prefix only.
	Truncated []TruncatedPair
	// Degraded reports that the run completed but shed or isolated some
	// work — per-candidate failures, truncated pairs, or spent failure
	// budgets: the report is valid for every listed case yet may be
	// missing detections among the affected pairs.
	Degraded bool
	// Stats is the filtering funnel.
	Stats Stats
	// Detected is the number of pairs this tick sent through the detect
	// job; every other candidate's Detection stood from an earlier tick or
	// came in with the delta. It is bookkeeping about the run, not part of
	// the funnel, so Stats stays comparable across runs that reached the
	// same state by different routes.
	Detected int
	// Ingest reports the scan accounting when the run ingested shards
	// (RunStream); nil for runs over a record slice. Lenient skips do not
	// mark the run Degraded: a skipped line was never an event.
	Ingest *IngestStats
}

// IngestStats is the scan-side accounting of a streaming (sharded) run.
type IngestStats struct {
	// Shards is the number of scan units (files and byte-range splits).
	Shards int
	// Records is the count of well-formed records ingested.
	Records int
	// SkippedLines counts malformed lines skipped in lenient mode.
	SkippedLines int
	// FirstSkipped describes the first skipped line, for diagnostics.
	FirstSkipped string
}

// guardEnv is the resilience environment a MapReduce job executes under:
// the guard bounds threaded into the job config, and a watchdog.
type guardEnv struct {
	g   guard.Config
	job mapreduce.JobConfig
	wd  *guard.Watchdog
}

// newGuardEnv threads the guard config's per-pair deadline, watchdog and
// failure budget into a job config; a zero config leaves it unbounded.
// The returned cleanup stops the watchdog (if one was created) and must be
// deferred by the caller.
func newGuardEnv(g guard.Config) (*guardEnv, func()) {
	env := &guardEnv{g: g, job: mapreduce.JobConfig{TaskTimeout: g.TaskTimeout, MaxFailed: g.FailureBudget}}
	if g.StallTimeout <= 0 {
		return env, func() {}
	}
	env.wd = guard.NewWatchdog(g.StallTimeout, g.PollInterval)
	env.job.Watchdog = env.wd
	return env, env.wd.Stop
}

// stageCtx bounds one pipeline stage by the guard's StageTimeout; a zero
// timeout returns ctx unbounded.
func stageCtx(ctx context.Context, g guard.Config, stage string) (context.Context, context.CancelFunc) {
	if g.StageTimeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, g.StageTimeout,
		fmt.Errorf("%w: stage %s exceeded %v", guard.ErrTimeout, stage, g.StageTimeout))
}

// runExtracted is every one-shot mode: run the front half — one of the
// ingest adapters, under the extract stage deadline and the per-pair
// event cap — tick a fresh Incremental once with every summary changed,
// and book the truncation into the Result. The front half's result comes
// back too, for callers that keep its summaries or scan stats.
func runExtracted(ctx context.Context, cfg Config, front func(context.Context, ingest.Config) (*ingest.Result, error)) (*Result, *ingest.Result, error) {
	inc, err := NewIncremental(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg = inc.cfg

	start := time.Now()
	extCtx, extDone := stageCtx(ctx, cfg.Guard, "extract")
	ext, err := front(extCtx, ingest.Config{Scale: cfg.Scale, MaxEventsPerPair: cfg.Guard.MaxEventsPerPair})
	extDone()
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: ingest: %w", err)
	}
	extractTime := time.Since(start)

	res, err := inc.Tick(ctx, ext.Summaries, nil)
	if err != nil {
		return nil, nil, err
	}
	res.Stats.ExtractTime = extractTime
	res.Truncated = ext.Truncated
	res.Stats.TruncatedPairs = len(ext.Truncated)
	for _, tp := range ext.Truncated {
		res.Stats.DroppedEvents += tp.Dropped
	}
	// The tick counted the events the summaries kept; the events read are
	// those plus the ones the cap shed.
	res.Stats.InputEvents += res.Stats.DroppedEvents
	res.Degraded = res.Degraded || len(ext.Truncated) > 0
	return res, ext, nil
}

// Run executes the full pipeline over proxy log records. corr may be nil,
// in which case raw client IPs identify sources.
func Run(ctx context.Context, records []*proxylog.Record, corr *proxylog.Correlator, cfg Config) (*Result, error) {
	res, _, err := RunWithSummaries(ctx, records, corr, cfg)
	return res, err
}

// RunWithSummaries is Run, additionally returning the extracted per-pair
// summaries (sorted by source, destination), so a caller that keeps them
// — the ops loop persists them as the day's history — does not pay a
// second extraction pass.
func RunWithSummaries(ctx context.Context, records []*proxylog.Record, corr *proxylog.Correlator, cfg Config) (*Result, []*timeseries.ActivitySummary, error) {
	return runEvents(ctx, len(records), func(i int) PairEvent { return recordEvent(records[i], corr) }, cfg)
}

// RunEvents is Run over source-agnostic pair events (sources already
// resolved); the ops loop's coarse passes enter here.
func RunEvents(ctx context.Context, events []PairEvent, cfg Config) (*Result, error) {
	res, _, err := runEvents(ctx, len(events), func(i int) PairEvent { return events[i] }, cfg)
	return res, err
}

func runEvents(ctx context.Context, n int, at func(i int) PairEvent, cfg Config) (*Result, []*timeseries.ActivitySummary, error) {
	res, ext, err := runExtracted(ctx, cfg, func(ctx context.Context, icfg ingest.Config) (*ingest.Result, error) {
		return ingest.IngestEvents(ctx, n, at, icfg)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, ext.Summaries, nil
}

// RunSummaries executes filters 1-8 over already-extracted activity
// summaries: one tick of a fresh Incremental. The summaries may be in any
// order and may hold several summaries of one pair, which merge before
// analysis; candidates and the report come out in pair order regardless.
func RunSummaries(ctx context.Context, summaries []*timeseries.ActivitySummary, cfg Config) (*Result, error) {
	inc, err := NewIncremental(cfg)
	if err != nil {
		return nil, err
	}
	return inc.Tick(ctx, summaries, nil)
}

// indication is the outcome of filters 6-8 for one candidate, computed by
// value so an abandoned (timed-out) analysis never races on the shared
// candidate (see guard.BoundWork).
type indication struct {
	lmScore    float64
	popularity float64
	similar    int
	token      tokenfilter.Analysis
	novelty    novelty.Verdict
	score      float64
	suppressed FilterStage
}

// runIndication executes the suspicious-indication analysis (filters 6-8
// minus the final percentile cut) for one detected candidate: language
// model score, local popularity, periodicity gate, token filter, novelty
// check and the weighted ranking score.
func runIndication(cfg Config, local *whitelist.Local, destSources map[string]int, cand *Candidate, d Detection) (out indication, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("indication panic: %v", r)
		}
	}()
	if err := faultCheck(faultinject.PointPipelineIndication, cand.Source+"|"+cand.Destination); err != nil {
		return out, err
	}
	out.lmScore = cfg.LM.Score(d.Summary.Destination)
	out.popularity = local.Popularity(d.Summary.Destination)
	out.similar = destSources[d.Summary.Destination]
	if !d.Result.Periodic {
		out.suppressed = StageNotPeriodic
		return out, nil
	}
	out.token = cfg.TokenFilter.Analyze(d.Summary.URLPaths)
	if out.token.LikelyBenign {
		out.suppressed = StageTokenFilter
		return out, nil
	}
	if cfg.Novelty != nil {
		out.novelty = cfg.Novelty.Check(cand.Source, cand.Destination)
		if out.novelty == novelty.Duplicate {
			out.suppressed = StageNovelty
			return out, nil
		}
	} else {
		out.novelty = novelty.NewDestination
	}
	// The score needs the indicators applied to the candidate; compute
	// it from a scratch copy so the shared candidate is untouched until
	// the outcome is committed.
	scratch := *cand
	scratch.LMScore, scratch.Popularity, scratch.SimilarSources = out.lmScore, out.popularity, out.similar
	out.score = ranking.Score(indicatorsFor(&scratch), cfg.Weights)
	return out, nil
}

// bookFunnel accounts one candidate's pre-ranking outcome into the
// filtering funnel.
func bookFunnel(stats *Stats, suppressed FilterStage) {
	switch suppressed {
	case StageNotPeriodic:
	case StageTokenFilter:
		stats.Periodic++
	case StageNovelty:
		stats.Periodic++
		stats.AfterTokenFilter++
	default:
		stats.Periodic++
		stats.AfterTokenFilter++
		stats.AfterNovelty++
	}
}

// rankAndReport is filter 8: rank the surviving candidates, apply the
// percentile threshold, record reported pairs in the novelty store, and
// mark the rest StageRankThreshold.
func rankAndReport(res *Result, cfg Config) {
	var rankable []ranking.Case
	byKey := make(map[pairKey]*Candidate)
	for _, c := range res.Candidates {
		if c.SuppressedBy != StageNone {
			continue
		}
		key := pairKey{Src: c.Source, Dst: c.Destination}
		byKey[key] = c
		rankable = append(rankable, ranking.Case{
			Source:      c.Source,
			Destination: c.Destination,
			Score:       c.Score,
		})
	}
	reported, _ := ranking.Rank(rankable, cfg.RankPercentile)
	reportedKeys := make(map[pairKey]struct{}, len(reported))
	for _, rc := range reported {
		key := pairKey{Src: rc.Source, Dst: rc.Destination}
		reportedKeys[key] = struct{}{}
		cand := byKey[key]
		res.Reported = append(res.Reported, cand)
		if cfg.Novelty != nil {
			cfg.Novelty.MarkReported(cand.Source, cand.Destination)
		}
	}
	for key, c := range byKey {
		if _, ok := reportedKeys[key]; !ok {
			c.SuppressedBy = StageRankThreshold
		}
	}
	res.Stats.Reported = len(res.Reported)
}

// guardCause returns the context's cancellation cause, falling back to
// its plain error.
func guardCause(ctx context.Context) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return ctx.Err()
}

// indicatorScratch pools the interval buffer indicatorsFor needs per
// candidate. The indication step runs under guard.BoundWork, which abandons
// timed-out computations while they are still executing, so the buffer must
// be per-call (pooled), never shared across candidates.
var indicatorScratch = sync.Pool{New: func() any { return new(indScratch) }}

type indScratch struct {
	intervals []float64
	periods   [1]float64
}

// indicatorsFor derives the ranking indicators from a candidate.
func indicatorsFor(c *Candidate) ranking.Indicators {
	ind := ranking.Indicators{
		LMScore:        c.LMScore,
		Popularity:     c.Popularity,
		SimilarSources: c.SimilarSources,
	}
	if c.Detection != nil && len(c.Detection.Kept) > 0 {
		best := c.Detection.Kept[0]
		ind.ACFScore = best.ACFScore
		sc := indicatorScratch.Get().(*indScratch)
		defer indicatorScratch.Put(sc)
		sc.intervals = c.Summary.AppendIntervalsSeconds(sc.intervals[:0])
		sc.periods[0] = best.BestPeriod()
		ind.IntervalRelStd = features.RelStdNearPeriod(sc.intervals, sc.periods[:])
		if p := best.BestPeriod(); p > 0 {
			ind.SpanCycles = float64(c.Summary.Span()) / p
		}
	}
	return ind
}
