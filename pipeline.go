package baywatch

import (
	"context"

	"baywatch/internal/corpus"
	"baywatch/internal/guard"
	"baywatch/internal/langmodel"
	"baywatch/internal/novelty"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/whitelist"
)

// PipelineConfig assembles the 8-step pipeline's components; see the
// pipeline package documentation for the filter-by-filter breakdown.
type PipelineConfig = pipeline.Config

// PipelineResult is a pipeline run's output: the ranked report plus the
// full candidate set and the filtering funnel statistics.
type PipelineResult = pipeline.Result

// Candidate is one communication pair as it moved through the pipeline.
type Candidate = pipeline.Candidate

// FilterStage identifies which filter suppressed a candidate.
type FilterStage = pipeline.FilterStage

// CandidateError records one candidate that failed in-flight during a
// degraded run; see PipelineResult.Errors.
type CandidateError = pipeline.CandidateError

// GuardConfig bounds a run's time and memory: per-stage and per-candidate
// deadlines, a stall watchdog, admission control and per-pair event caps.
// The zero value disables every bound; see PipelineConfig.Guard.
type GuardConfig = guard.Config

// TruncatedPair records one communication pair whose events were shed to
// the per-pair cap during a run; see PipelineResult.Truncated.
type TruncatedPair = pipeline.TruncatedPair

// Record is one proxy-log entry (BlueCoat-style access log record).
type Record = proxylog.Record

// Lease is one DHCP lease event used for IP-to-MAC correlation.
type Lease = proxylog.Lease

// Correlator resolves (IP, timestamp) to device MACs over a lease set.
type Correlator = proxylog.Correlator

// LanguageModel is the 3-gram Kneser-Ney character model scoring domain
// names.
type LanguageModel = langmodel.Model

// GlobalWhitelist is the popular-domain whitelist with suffix matching.
type GlobalWhitelist = whitelist.Global

// NoveltyStore is the persistent change-detection state of the novelty
// filter.
type NoveltyStore = novelty.Store

// RunPipeline executes the full 8-step BAYWATCH pipeline over proxy-log
// records. corr may be nil, in which case raw client IPs identify
// sources. The config's LM field is required; build one with
// TrainLanguageModel.
func RunPipeline(ctx context.Context, records []*Record, corr *Correlator, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.Run(ctx, records, corr, cfg)
}

// TrainLanguageModel trains the domain-name language model on a corpus of
// popular domain names (most popular first).
func TrainLanguageModel(domains []string) (*LanguageModel, error) {
	return langmodel.Train(domains)
}

// PopularDomains deterministically generates a plausible popular-domain
// ranking (most popular first); it substitutes for the Alexa top list the
// paper trains on and whitelists with.
func PopularDomains(n int, seed int64) []string {
	return corpus.PopularDomains(n, seed)
}

// NewGlobalWhitelist builds the global whitelist from a domain list,
// typically the head of the popular-domain ranking.
func NewGlobalWhitelist(domains []string) *GlobalWhitelist {
	return whitelist.NewGlobal(domains)
}

// NewNoveltyStore returns an empty novelty store; use LoadNoveltyStore to
// resume accumulated state.
func NewNoveltyStore() *NoveltyStore {
	return novelty.NewStore()
}

// LoadNoveltyStore reads a previously saved novelty store; a missing file
// yields an empty store.
func LoadNoveltyStore(path string) (*NoveltyStore, error) {
	return novelty.Load(path)
}

// NewCorrelator indexes DHCP leases for IP-to-MAC resolution.
func NewCorrelator(leases []Lease) (*Correlator, error) {
	return proxylog.NewCorrelator(leases)
}

// ReadProxyLog parses every record in a (optionally gzip-compressed) log
// file written in the repository's BlueCoat-style format.
func ReadProxyLog(path string) ([]*Record, error) {
	return proxylog.ReadAll(path)
}

// ReadStats reports what a lenient proxy-log read skipped.
type ReadStats = proxylog.ReadStats

// ReadProxyLogLenient parses a proxy log skipping up to maxBad malformed
// lines (maxBad <= 0 means unlimited) instead of aborting; the stats
// report how much was skipped. I/O-level failures (e.g. a truncated gzip
// stream) still error: they mean lost data, not a dirty line.
func ReadProxyLogLenient(path string, maxBad int) ([]*Record, ReadStats, error) {
	return proxylog.ReadAllLenient(path, maxBad)
}

// ExtractActivitySummaries runs data extraction (Sect. VII-A): it
// groups proxy-log records into per-communication-pair request histories
// at the given time scale (seconds per bucket). corr may be nil to use raw
// client IPs as source identities.
func ExtractActivitySummaries(ctx context.Context, records []*Record, corr *Correlator, scale int64) ([]*ActivitySummary, error) {
	return ExtractFromEvents(ctx, pipeline.RecordEvents(records, corr), scale)
}

// RescaleAndMerge runs the rescaling/merging MapReduce job: summaries are
// rescaled to the (coarser) newScale and histories of the same pair are
// merged, enabling weekly/monthly analysis without reprocessing raw logs.
func RescaleAndMerge(ctx context.Context, summaries []*ActivitySummary, newScale int64) ([]*ActivitySummary, error) {
	// No failure budget: a failing pair aborts the job, so none is dropped.
	merged, _, err := pipeline.RescaleAndMerge(ctx, summaries, newScale, guard.Config{})
	return merged, err
}
