// Command baywatch runs the full 8-step beaconing-detection pipeline over
// a directory of proxy log files (as written by bwgen) and prints the
// ranked suspicious cases.
//
// Usage:
//
//	baywatch -logs traces/demo [-state state/novelty.json] [-top 25]
//	         [-scale 1] [-tau 0.01] [-percentile 90]
//
// Log files are never materialized as records: every run plans scan shards
// and streams them through internal/ingest on -ingest-workers parallel
// workers. By default each file is one shard; -shards N divides each file
// into up to N byte-range splits, with identical pipeline results (gzip
// files always scan as one shard; the -lenient malformed-line budget
// applies per shard, so per file by default):
//
//	baywatch -logs traces/demo -shards 4 -ingest-workers 4
//
// Operations mode treats each log file as one ingested day and commits it
// through the crash-safe operations loop:
//
//	baywatch -logs traces/demo -ops state/ops
//
// Serve mode (-serve) runs baywatch as an always-on streaming daemon:
// supervised sources (-follow tailed files, -listen sockets, -http-ingest
// endpoints) feed the engine continuously, detection re-runs
// incrementally every -tick, state checkpoints through a crash-safe
// journal in -serve-state, and -query serves the latest ranked pairs:
//
//	baywatch -serve -follow /var/log/proxy.log \
//	         -serve-state state/daemon -query 127.0.0.1:8478
//
// Exit codes: 0 success, 1 error, 3 the run completed but Degraded (shed
// or isolated work; suppressed by -allow-degraded), 130 interrupted by
// SIGINT/SIGTERM. In operations mode the first signal drains — the
// current day finishes and commits, leaving the manifest journal at a
// clean commit point — and a second signal aborts hard (the interrupted
// day rolls back and can be re-ingested). Serve mode drains the same way:
// the first signal stops the sources and takes a final checkpoint (exit 0,
// or 3 if the daemon had degraded), a second aborts hard — safe, because
// the checkpoint protocol makes a kill at any instant recoverable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"baywatch/internal/casefile"
	"baywatch/internal/corpus"
	"baywatch/internal/features"
	"baywatch/internal/guard"
	"baywatch/internal/ingest"
	"baywatch/internal/langmodel"
	"baywatch/internal/novelty"
	"baywatch/internal/opsloop"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/whitelist"
)

// Sentinel errors mapped to distinct exit codes in main.
var (
	errDegraded    = errors.New("run completed degraded (see warnings; -allow-degraded suppresses this exit code)")
	errInterrupted = errors.New("interrupted")
)

func main() {
	err := run()
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "baywatch:", err)
	switch {
	case errors.Is(err, errInterrupted) || errors.Is(err, context.Canceled):
		os.Exit(130)
	case errors.Is(err, errDegraded):
		os.Exit(3)
	default:
		os.Exit(1)
	}
}

func run() error {
	logsDir := flag.String("logs", "", "directory of proxy-*.log[.gz] files (required)")
	statePath := flag.String("state", "", "novelty store path (optional; enables change detection across runs)")
	opsDir := flag.String("ops", "", "operations-loop state directory: ingest each log file as one day through the crash-safe ops loop")
	top := flag.Int("top", 25, "number of ranked cases to print")
	scale := flag.Int64("scale", 1, "time-series granularity in seconds")
	tau := flag.Float64("tau", 0.01, "local whitelist popularity threshold")
	percentile := flag.Float64("percentile", 90, "ranking score percentile threshold")
	whitelistSize := flag.Int("whitelist", 1000, "global whitelist size (top popular domains)")
	casesOut := flag.String("cases", "", "export candidate cases (with features) as JSON for bwtriage")
	lenient := flag.Int("lenient", 0, "skip up to N malformed log lines per shard (per file unless -shards splits it) instead of aborting (0 = strict)")
	allowDegraded := flag.Bool("allow-degraded", false, "exit 0 even when the run completes degraded")
	stageTimeout := flag.Duration("stage-timeout", 0, "wall-clock bound per pipeline stage (0 = unbounded)")
	candidateTimeout := flag.Duration("candidate-timeout", 0, "wall-clock bound per candidate's detection/indication; overruns are parked as errors (0 = unbounded)")
	taskTimeout := flag.Duration("task-timeout", 0, "wall-clock bound per pair in the detect and rescale-merge jobs; an overrun drops the pair within -failure-budget; log ingest is bounded by -stage-timeout (0 = unbounded)")
	stallTimeout := flag.Duration("stall-timeout", 0, "watchdog bound per pair in the detect and rescale-merge jobs and the indication analysis: a worker silent this long has its pair cancelled (0 = no watchdog)")
	maxEventsPerPair := flag.Int("max-events-per-pair", 0, "truncate pairs above this many events to their earliest events (0 = uncapped)")
	maxInFlight := flag.Int("max-inflight", 0, "bound on candidates admitted to detection concurrently (0 = unlimited)")
	failureBudget := flag.Int("failure-budget", 0, "failure budget of the detect and rescale-merge jobs, counted per pair (failed, timed out or stalled): pairs within it are dropped, one more aborts the job; log ingest sheds only through -max-events-per-pair (0 = abort on first)")
	shards := flag.Int("shards", 0, "byte-range splits per log file (0 or 1 = one whole-file shard per file; gzip files always scan as one shard)")
	ingestWorkers := flag.Int("ingest-workers", 0, "parallel shard-scan and summary-aggregation workers (0 = GOMAXPROCS)")
	serve := flag.Bool("serve", false, "run as an always-on streaming daemon; sources come from -follow/-listen/-http-ingest instead of -logs")
	var follow, listen, httpIngest stringList
	flag.Var(&follow, "follow", "serve mode: tail this log file, surviving rotation and truncation (repeatable)")
	flag.Var(&listen, "listen", "serve mode: accept log lines on this stream socket, as network:address, e.g. tcp:127.0.0.1:9466 or unix:/run/bw.sock (repeatable)")
	flag.Var(&httpIngest, "http-ingest", "serve mode: accept POSTed log lines on this HTTP address (repeatable)")
	serveState := flag.String("serve-state", "", "serve mode: state directory for the crash-safe checkpoint (required with -serve)")
	queryAddr := flag.String("query", "", "serve mode: serve /ranked, /host and /status on this address")
	tickInterval := flag.Duration("tick", 30*time.Second, "serve mode: incremental-detection cadence")
	commitEvery := flag.Int("commit-every", 5000, "serve mode: checkpoint after this many ingested events (<0 disables count-based commits)")
	lateness := flag.Int64("lateness", 0, "serve mode: allowed event lateness in seconds; events behind the committed watermark are dropped (0 = accept any lateness)")
	retainWindows := flag.Int("retain-windows", 0, "serve mode: evict pairs idle longer than this many lateness windows, bounding memory and checkpoint size to active traffic (0 = retain forever; requires -lateness)")
	caseLabels := flag.String("casefile", "", "serve mode: bwtriage labels file; /ranked and /host responses carry each labeled pair's verdict, re-read when the file changes")
	maxQueries := flag.Int("max-queries", 16, "serve mode: concurrent query-endpoint requests before shedding with 503 (<0 = unlimited)")
	sourceStall := flag.Duration("source-stall", 0, "serve mode: a source silent this long is cancelled and restarted (0 = no source watchdog)")
	flag.Parse()

	lm, err := langmodel.Train(corpus.PopularDomains(20000, 42))
	if err != nil {
		return err
	}
	cfg := pipeline.Config{
		Scale:          *scale,
		Global:         whitelist.NewGlobal(corpus.PopularDomains(*whitelistSize, 42)),
		LocalTau:       *tau,
		LM:             lm,
		RankPercentile: *percentile,
		Guard: guard.Config{
			StageTimeout:     *stageTimeout,
			CandidateTimeout: *candidateTimeout,
			TaskTimeout:      *taskTimeout,
			StallTimeout:     *stallTimeout,
			MaxEventsPerPair: *maxEventsPerPair,
			MaxInFlight:      *maxInFlight,
			FailureBudget:    *failureBudget,
		},
	}

	if *serve {
		return runServe(cfg, serveOpts{
			state:         *serveState,
			follow:        follow,
			listen:        listen,
			httpIngest:    httpIngest,
			query:         *queryAddr,
			tick:          *tickInterval,
			commitEvery:   *commitEvery,
			lateness:      *lateness,
			retainWindows: *retainWindows,
			casefile:      *caseLabels,
			maxQueries:    *maxQueries,
			stall:         *sourceStall,
			scale:         *scale,
			allowDegraded: *allowDegraded,
		})
	}
	if *logsDir == "" {
		flag.Usage()
		return fmt.Errorf("missing -logs (or -serve with streaming sources)")
	}

	entries, err := filepath.Glob(filepath.Join(*logsDir, "proxy-*.log*"))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no proxy-*.log files under %s", *logsDir)
	}
	sort.Strings(entries)

	// Optional DHCP correlation.
	var corr *proxylog.Correlator
	leasePath := filepath.Join(*logsDir, "dhcp-leases.json")
	if data, err := os.ReadFile(leasePath); err == nil {
		var leases []proxylog.Lease
		if err := json.Unmarshal(data, &leases); err != nil {
			return fmt.Errorf("parse %s: %w", leasePath, err)
		}
		corr, err = proxylog.NewCorrelator(leases)
		if err != nil {
			return err
		}
		fmt.Printf("correlating sources against %d DHCP leases\n", len(leases))
	}

	ing := ingestOpts{shards: *shards, workers: *ingestWorkers, lenient: *lenient}
	if *opsDir != "" {
		if *statePath != "" {
			return fmt.Errorf("-state is managed by the ops loop; drop it when using -ops")
		}
		return runOps(*opsDir, entries, corr, cfg, ing, *top, *allowDegraded)
	}
	return runOnce(entries, corr, cfg, *statePath, ing, *top, *allowDegraded, *casesOut)
}

// ingestOpts parameterizes the shard plan and scan: each log file scans
// as up to `shards` byte-range splits (<= 1: one whole-file split) on
// `workers` parallel workers.
type ingestOpts struct {
	shards  int
	workers int
	lenient int
}

// streamOptions converts the CLI options to the pipeline's scan options.
func (o ingestOpts) streamOptions() pipeline.StreamOptions {
	return pipeline.StreamOptions{Workers: o.workers, MaxBadLines: o.lenient}
}

// reportIngest prints the scan accounting and lenient-skip warnings.
func reportIngest(ing *pipeline.IngestStats) {
	if ing.SkippedLines > 0 {
		fmt.Fprintf(os.Stderr, "warning: skipped %d malformed line(s) across shards (first: %s)\n",
			ing.SkippedLines, ing.FirstSkipped)
	}
	fmt.Printf("scanned %d events from %d shard(s)\n", ing.Records, ing.Shards)
}

// runOnce is the single-shot mode: one pipeline run over every log file,
// cancellable by SIGINT/SIGTERM.
func runOnce(entries []string, corr *proxylog.Correlator, cfg pipeline.Config, statePath string, ing ingestOpts, top int, allowDegraded bool, casesOut string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var store *novelty.Store
	if statePath != "" {
		var err error
		store, err = novelty.Load(statePath)
		if err != nil {
			return err
		}
	}
	cfg.Novelty = store

	// Plan the scan units and let the ingest layer scan them in parallel;
	// records are never materialized.
	shards, err := ingest.PlanShards(entries, ing.shards)
	if err != nil {
		return err
	}
	fmt.Printf("streaming %d file(s) as %d shard(s)\n", len(entries), len(shards))
	res, err := pipeline.RunStream(ctx, shards, corr, cfg, ing.streamOptions())
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("%w: %v", errInterrupted, err)
		}
		return err
	}
	reportIngest(res.Ingest)
	printReport(res, top)

	if store != nil {
		if err := store.Save(statePath); err != nil {
			return err
		}
		d, p := store.Size()
		fmt.Printf("\nnovelty store saved to %s (%d destinations, %d pairs)\n", statePath, d, p)
	}
	if casesOut != "" {
		if err := exportCases(res, casesOut); err != nil {
			return err
		}
	}
	if res.Degraded && !allowDegraded {
		return errDegraded
	}
	return nil
}

// runOps is the operations mode: each log file is one day, ingested
// through the crash-safe ops loop. The first SIGINT/SIGTERM drains (the
// in-flight day finishes and commits); a second aborts the in-flight day,
// which rolls back and can be re-ingested.
func runOps(stateDir string, entries []string, corr *proxylog.Correlator, cfg pipeline.Config, ing ingestOpts, top int, allowDegraded bool) error {
	loop, err := opsloop.New(opsloop.Config{
		StateDir: stateDir,
		Pipeline: cfg,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "warning: "+format+"\n", args...)
		},
	}, corr)
	if err != nil {
		return err
	}
	if rec := loop.Recovery(); len(rec.Warnings) > 0 {
		fmt.Fprintf(os.Stderr, "warning: recovery repaired %d issue(s); quarantined: %d\n",
			len(rec.Warnings), len(rec.Quarantined))
	}
	fmt.Printf("ops loop at %s: %d day(s) already committed\n", stateDir, loop.DaysIngested())
	// Each sorted file is one day; skip the ones a previous (possibly
	// interrupted) invocation already committed so a rerun resumes at the
	// first unprocessed day instead of re-ingesting from the start.
	if done := loop.DaysIngested(); done > 0 {
		if done >= len(entries) {
			fmt.Printf("nothing to do: all %d file(s) already committed\n", len(entries))
			return nil
		}
		entries = entries[done:]
	}

	ctx, hardCancel := context.WithCancelCause(context.Background())
	defer hardCancel(nil)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	var draining atomic.Bool
	go func() {
		for range sigc {
			if draining.CompareAndSwap(false, true) {
				fmt.Fprintln(os.Stderr, "baywatch: signal received; committing the in-flight day, then stopping (signal again to abort)")
			} else {
				fmt.Fprintln(os.Stderr, "baywatch: second signal; aborting the in-flight day")
				hardCancel(errInterrupted)
			}
		}
	}()

	degradedDays := 0
	for _, path := range entries {
		if draining.Load() {
			return fmt.Errorf("%w: stopped after day %d (state committed; rerun to continue)",
				errInterrupted, loop.DaysIngested())
		}
		// The file scans as shards and the day's history summaries come
		// from the same pass.
		shards, err := ingest.PlanShards([]string{path}, ing.shards)
		if err != nil {
			return fmt.Errorf("plan %s: %w", path, err)
		}
		rep, err := loop.IngestDayShards(ctx, shards, ing.streamOptions())
		if err != nil {
			if errors.Is(err, errInterrupted) || errors.Is(err, context.Canceled) {
				return fmt.Errorf("%w: day %d rolled back; %d day(s) committed (rerun to continue)",
					errInterrupted, loop.DaysIngested()+1, loop.DaysIngested())
			}
			return fmt.Errorf("ingest day %d (%s): %w", loop.DaysIngested()+1, filepath.Base(path), err)
		}
		fmt.Printf("\n==== day %d (%s): %d events ====\n", rep.DaysIngested, filepath.Base(path), rep.Daily.Stats.InputEvents)
		reportIngest(rep.Daily.Ingest)
		printReport(rep.Daily, top)
		if rep.Daily.Degraded {
			degradedDays++
		}
		for _, coarse := range []struct {
			name string
			res  *pipeline.Result
		}{{"weekly", rep.Weekly}, {"monthly", rep.Monthly}} {
			if coarse.res == nil {
				continue
			}
			fmt.Printf("\n-- %s coarse pass --\n", coarse.name)
			printReport(coarse.res, top)
			if coarse.res.Degraded {
				degradedDays++
			}
		}
	}
	fmt.Printf("\nops loop done: %d day(s) committed, history %d pair(s)\n",
		loop.DaysIngested(), loop.HistoryPairs())
	if degradedDays > 0 && !allowDegraded {
		return fmt.Errorf("%d run(s) degraded: %w", degradedDays, errDegraded)
	}
	return nil
}

// printReport prints one pipeline result: degradation warnings, the
// filtering funnel, shed-load accounting and the ranked cases.
func printReport(res *pipeline.Result, top int) {
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "warning: run degraded: %d candidate(s) isolated, %d pair(s) truncated, %d pair(s) failed within budget\n",
			len(res.Errors), res.Stats.TruncatedPairs, res.Stats.FailedPairs)
		for _, ce := range res.Errors {
			fmt.Fprintf(os.Stderr, "warning:   %s -> %s (%s): %s\n", ce.Source, ce.Destination, ce.Stage, ce.Err)
		}
		for _, tp := range res.Truncated {
			fmt.Fprintf(os.Stderr, "warning:   %s -> %s truncated to %d events (%d dropped)\n",
				tp.Source, tp.Destination, tp.Kept, tp.Dropped)
		}
	}
	if res.Stats.Stalls > 0 {
		fmt.Fprintf(os.Stderr, "warning: watchdog cancelled %d stalled task(s)\n", res.Stats.Stalls)
	}

	s := res.Stats
	fmt.Printf("\nfilter funnel: %d events -> %d pairs -> %d after global WL -> %d after local WL -> %d periodic -> %d after token filter -> %d after novelty -> %d reported\n",
		s.InputEvents, s.Pairs, s.AfterGlobalWhitelist, s.AfterLocalWhitelist,
		s.Periodic, s.AfterTokenFilter, s.AfterNovelty, s.Reported)
	fmt.Printf("timings: extract %s, popularity %s, detect %s, rank %s\n\n",
		s.ExtractTime.Round(time.Millisecond), s.PopularityTime.Round(time.Millisecond),
		s.DetectTime.Round(time.Millisecond), s.RankTime.Round(time.Millisecond))

	fmt.Printf("%-4s %-34s %-18s %-9s %-8s %-9s\n", "rank", "destination", "source", "period", "score", "lm-score")
	fmt.Println(strings.Repeat("-", 88))
	for i, c := range res.Reported {
		if i >= top {
			break
		}
		period := "-"
		if len(c.Detection.Kept) > 0 {
			period = fmt.Sprintf("%.0fs", smallestPeriod(c))
		}
		fmt.Printf("%-4d %-34s %-18s %-9s %-8.3f %-9.1f\n",
			i+1, trim(c.Destination, 34), trim(c.Source, 18), period, c.Score, c.LMScore)
	}
}

// exportCases writes the periodic candidates as feature-vector cases for
// bwtriage.
func exportCases(res *pipeline.Result, casesOut string) error {
	var cases []casefile.Case
	for _, c := range res.Candidates {
		if c.Detection == nil || !c.Detection.Periodic {
			continue
		}
		fc := features.Case{SimilarSources: c.SimilarSources}
		if c.Summary != nil {
			fc.Intervals = c.Summary.IntervalsSeconds()
		}
		if len(c.Detection.Kept) > 0 {
			fc.DominantPeriods = c.Detection.DominantPeriods()
			fc.Power = c.Detection.Kept[0].Power
			fc.ACFScore = c.Detection.Kept[0].ACFScore
		}
		cases = append(cases, casefile.Case{
			ID:          c.Source + "|" + c.Destination,
			Source:      c.Source,
			Destination: c.Destination,
			Features:    append(features.Vector(fc), c.LMScore, c.Popularity),
			Score:       c.Score,
			Periods:     c.Detection.DominantPeriods(),
			LMScore:     c.LMScore,
		})
	}
	if err := casefile.Write(casesOut, cases); err != nil {
		return err
	}
	fmt.Printf("exported %d candidate cases to %s\n", len(cases), casesOut)
	return nil
}

func smallestPeriod(c *pipeline.Candidate) float64 {
	smallest := 1e18
	for _, k := range c.Detection.Kept {
		if p := k.BestPeriod(); p < smallest {
			smallest = p
		}
	}
	return smallest
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-2] + ".."
}
