package pipeline

import (
	"context"

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
// front half enters the ingest layer through its shard adapter (parallel
// zero-copy scan, no record materialization) where Run enters it through
// the event adapter; past the scan the two are one code path and produce
// identical Results on identical input (the package's golden and
// differential tests pin this). corr may be nil, in which case raw client
// IPs identify sources.
func RunStream(ctx context.Context, shards []proxylog.Split, corr *proxylog.Correlator, cfg Config, opt StreamOptions) (*Result, error) {
	res, _, err := RunStreamSummaries(ctx, shards, corr, cfg, opt)
	return res, err
}

// RunStreamSummaries is RunStream, additionally returning the extracted
// per-pair summaries (sorted by source, destination); see
// RunWithSummaries.
func RunStreamSummaries(ctx context.Context, shards []proxylog.Split, corr *proxylog.Correlator, cfg Config, opt StreamOptions) (*Result, []*timeseries.ActivitySummary, error) {
	res, ext, err := runExtracted(ctx, cfg, func(ctx context.Context, icfg ingest.Config) (*ingest.Result, error) {
		icfg.Workers, icfg.MaxBadLines = opt.Workers, opt.MaxBadLines
		icfg.Correlator, icfg.Symbols = corr, opt.Symbols
		return ingest.Ingest(ctx, shards, icfg)
	})
	if err != nil {
		return nil, nil, err
	}
	res.Ingest = &IngestStats{
		Shards:       len(ext.Stats.Shards),
		Records:      ext.Stats.Records,
		SkippedLines: ext.Stats.SkippedLines,
		FirstSkipped: ext.Stats.FirstSkipped,
	}
	return res, ext.Summaries, nil
}
