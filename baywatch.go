// Package baywatch is a from-scratch Go implementation of BAYWATCH, the
// robust beaconing detection methodology of Hu et al. (IEEE/IFIP DSN 2016):
// an 8-step filtering pipeline that mines web-proxy logs for the periodic
// callback traffic ("beaconing") of malware command-and-control channels
// and produces a prioritized list of suspicious communication pairs.
//
// The package exposes three layers:
//
//   - the core periodicity detection algorithm (Detect / Detector):
//     periodogram analysis with a permutation-derived power threshold,
//     statistical pruning (minimum-interval rule, one-sample t-test,
//     Gaussian-mixture interval clustering), and autocorrelation
//     verification with period refinement;
//
//   - the full 8-step pipeline (RunPipeline): global and local whitelists,
//     the detection algorithm, URL-token / novelty / language-model
//     filters, and weighted ranking, with the paper's Hadoop jobs
//     mapped onto one host's worker pools;
//
//   - the investigation workflow (Triage...): Table II feature extraction
//     and a random-forest classifier with uncertainty-ordered review.
//
// The repository also ships the evaluation substrate the paper relies on:
// a deterministic enterprise-traffic simulator with injected infections
// (standing in for the proprietary 35 TB proxy-log corpus), a DHCP lease
// correlator, a popular-domain corpus generator (standing in for the Alexa
// ranking), and a simulated threat-intelligence oracle. See DESIGN.md for
// the full inventory and EXPERIMENTS.md for the paper-vs-measured results.
package baywatch

import (
	"fmt"

	"baywatch/internal/core"
	"baywatch/internal/timeseries"
)

// DetectorConfig parameterizes the periodicity detection algorithm
// (Sect. IV of the paper). See DefaultDetectorConfig for the paper's
// parameterization.
type DetectorConfig = core.Config

// DetectionResult is the outcome of analyzing one communication pair's
// request history.
type DetectionResult = core.Result

// CandidatePeriod is one candidate period with the statistics gathered
// across the three detection steps.
type CandidatePeriod = core.Candidate

// Detector runs the three-step periodicity detection; it is safe for
// concurrent use.
type Detector = core.Detector

// ActivitySummary is the per-pair request history (source, destination,
// time scale, first timestamp, interval list) that flows through the
// pipeline.
type ActivitySummary = timeseries.ActivitySummary

// DefaultDetectorConfig returns the parameterization used throughout the
// paper's evaluation: m = 20 permutations at 95% confidence, α = 5%.
func DefaultDetectorConfig() DetectorConfig {
	return core.DefaultConfig()
}

// NewDetector builds a Detector, replacing out-of-range config fields with
// defaults.
func NewDetector(cfg DetectorConfig) *Detector {
	return core.NewDetector(cfg)
}

// DetectBeaconing analyzes a single request-timestamp sequence (Unix
// seconds, any order) at the given time scale (seconds per bucket; use 1
// for the paper's finest granularity). It is the quickest way to ask "is
// this communication pair beaconing?":
//
//	res, err := baywatch.DetectBeaconing(timestamps, 1, baywatch.DefaultDetectorConfig())
//	if res.Periodic { fmt.Println(res.DominantPeriods()) }
func DetectBeaconing(timestamps []int64, scale int64, cfg DetectorConfig) (*DetectionResult, error) {
	as, err := timeseries.FromTimestamps("src", "dst", timestamps, scale)
	if err != nil {
		return nil, fmt.Errorf("baywatch: %w", err)
	}
	return core.NewDetector(cfg).Detect(as)
}

// NewActivitySummary builds an ActivitySummary from raw request
// timestamps for the given pair at the given scale.
func NewActivitySummary(source, destination string, timestamps []int64, scale int64) (*ActivitySummary, error) {
	return timeseries.FromTimestamps(source, destination, timestamps, scale)
}
