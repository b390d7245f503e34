package pipeline

import (
	"context"
	"fmt"

	"baywatch/internal/ingest"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// StreamOptions configures the scan side of a streaming (sharded) run.
type StreamOptions struct {
	// Workers is the number of parallel shard-scan workers; <= 0 means
	// GOMAXPROCS.
	Workers int
	// MaxBadLines is the per-shard lenient budget (see
	// ingest.Config.MaxBadLines); 0 is strict.
	MaxBadLines int
	// Symbols optionally reuses a symbol table across runs (the ops
	// loop's daily ingests); nil uses a fresh table per run.
	Symbols *ingest.SymbolTable
}

// RunStream executes the full pipeline over sharded log sources: the
// front half is the streaming ingest layer (parallel zero-copy shard
// scan, interned pair IDs, direct-to-summary aggregation) instead of the
// record slice + MapReduce extraction job of Run. The back half is the
// same Incremental tick, and the two produce identical Results on
// identical input (the package's differential tests pin this). corr may
// be nil, in which case raw client IPs identify sources.
func RunStream(ctx context.Context, shards []proxylog.Split, corr *proxylog.Correlator, cfg Config, opt StreamOptions) (*Result, error) {
	res, _, err := RunStreamSummaries(ctx, shards, corr, cfg, opt)
	return res, err
}

// RunStreamSummaries is RunStream, additionally returning the extracted
// per-pair summaries (sorted by source, destination); see
// RunWithSummaries.
func RunStreamSummaries(ctx context.Context, shards []proxylog.Split, corr *proxylog.Correlator, cfg Config, opt StreamOptions) (*Result, []*timeseries.ActivitySummary, error) {
	return runExtracted(ctx, cfg, func(ctx context.Context, cfg Config, env *guardEnv) (extraction, error) {
		// The stage deadline and the per-pair event cap apply exactly as in
		// the extraction job; scan errors abort the run like a failed
		// extraction job would.
		ires, err := ingest.Ingest(ctx, shards, ingest.Config{
			Workers:          opt.Workers,
			Scale:            cfg.Scale,
			MaxBadLines:      opt.MaxBadLines,
			MaxEventsPerPair: env.g.MaxEventsPerPair,
			Correlator:       corr,
			Symbols:          opt.Symbols,
		})
		if err != nil {
			return extraction{}, fmt.Errorf("pipeline: ingest: %w", err)
		}
		truncated := make([]TruncatedPair, len(ires.Truncated))
		for i, tr := range ires.Truncated {
			truncated[i] = TruncatedPair{Source: tr.Source, Destination: tr.Destination, Kept: tr.Kept, Dropped: tr.Dropped}
		}
		return extraction{
			summaries:   ires.Summaries,
			truncated:   truncated,
			inputEvents: ires.Stats.Records,
			ingest: &IngestStats{
				Shards:       len(ires.Stats.Shards),
				Records:      ires.Stats.Records,
				SkippedLines: ires.Stats.SkippedLines,
				FirstSkipped: ires.Stats.FirstSkipped,
			},
		}, nil
	})
}
