package core

import (
	"slices"
	"sync"

	"baywatch/internal/timeseries"
)

// Batch detection: plan-at-a-time scheduling over many communication pairs.
//
// At enterprise scale the detector runs over millions of pairs whose binned
// series cluster into a handful of (length, event count) shapes — short
// pow2-bucketed windows dominated by the m-permutation threshold loop. Two
// amortizations apply. First, the permutation spectra of one series batch
// through a single cached FFT plan (see dsp.MaxPowersInto). Second,
// the permutation threshold itself is a pure function of the configured
// seed and the series' value multiset (permutationThreshold canonicalizes
// the shuffle start by sorting), so one threshold serves every pair in a
// bucket; ThresholdMemo caches it and DetectBatch orders the work so
// same-bucket pairs run back-to-back against a warm memo and a warm plan.

// ThresholdKey identifies one memoized permutation threshold. Seed isolates
// detectors configured differently; SeriesLen and Events describe the
// analyzed (post-decimation) series; Hash fingerprints the series' value
// multiset. The multiset hash is load-bearing, not belt-and-braces: binned
// series are counts, so two pairs with equal length and event count can
// still differ in arrangement-invariant content (e.g. {2,1,1,...} vs
// {1,1,1,...}) and must draw distinct null distributions.
type ThresholdKey struct {
	Seed      int64
	SeriesLen int
	Events    int
	Hash      uint64
}

// ThresholdMemo is a bounded, concurrency-safe cache of permutation
// thresholds shared across Detect calls. A hit returns bit-identical to a
// cold computation (the threshold is a pure function of the key), so
// sharing a memo across pairs, workers, or ticks never changes verdicts.
type ThresholdMemo struct {
	mu  sync.Mutex
	m   map[ThresholdKey]float64
	max int
}

// DefaultThresholdMemoSize bounds a memo constructed with
// NewThresholdMemo(0). Entries are 40 bytes of key plus a float64, so the
// default costs well under a megabyte while covering far more distinct
// buckets than a day of enterprise traffic produces.
const DefaultThresholdMemoSize = 4096

// NewThresholdMemo returns a memo holding at most max entries (max <= 0
// selects DefaultThresholdMemoSize). When full, the next insert of a new
// key deterministically resets the cache rather than evicting by access
// order, so identical runs always observe identical memo states.
func NewThresholdMemo(max int) *ThresholdMemo {
	if max <= 0 {
		max = DefaultThresholdMemoSize
	}
	return &ThresholdMemo{m: make(map[ThresholdKey]float64), max: max}
}

// Len reports the number of cached thresholds.
func (tm *ThresholdMemo) Len() int {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return len(tm.m)
}

func (tm *ThresholdMemo) lookup(k ThresholdKey) (float64, bool) {
	tm.mu.Lock()
	t, ok := tm.m[k]
	tm.mu.Unlock()
	return t, ok
}

func (tm *ThresholdMemo) store(k ThresholdKey, t float64) {
	tm.mu.Lock()
	if _, ok := tm.m[k]; !ok && len(tm.m) >= tm.max {
		clear(tm.m)
	}
	tm.m[k] = t
	tm.mu.Unlock()
}

// Bucket is the batch-scheduling shape of a summary: the length and event
// count of the series the spectral analysis will actually see (after the
// MaxSeriesLen cap and MaxAnalysisBins decimation). Summaries in the same
// bucket share an FFT plan; those with identical value multisets also share
// a memoized threshold.
type Bucket struct {
	SeriesLen int
	Events    int
}

// BucketOf computes the analysis bucket of a summary from its interval
// metadata alone, without materializing the binned series.
func (d *Detector) BucketOf(as *timeseries.ActivitySummary) Bucket {
	if as == nil {
		return Bucket{}
	}
	cfg := d.cfg
	var span int64
	for _, iv := range as.Intervals {
		span += iv
	}
	n := int(span) + 1
	if cfg.MaxSeriesLen > 0 && n > cfg.MaxSeriesLen {
		n = cfg.MaxSeriesLen
	}
	if n < 1 {
		n = 1
	}
	// Events within the cap, mirroring BinSeriesInto's early break.
	events := 1
	var pos int64
	for _, iv := range as.Intervals {
		pos += iv
		if pos >= int64(n) {
			break
		}
		events++
	}
	// Long windows are decimated before spectral analysis; the bucket
	// reflects the decimated length (rebinning preserves the event count).
	if n > cfg.MaxAnalysisBins {
		f := (n + cfg.MaxAnalysisBins - 1) / cfg.MaxAnalysisBins
		n = (n + f - 1) / f
	}
	return Bucket{SeriesLen: n, Events: events}
}

// BatchResult pairs one summary's detection outcome with its error, in the
// input order of DetectBatch.
type BatchResult struct {
	Result *Result
	Err    error
}

// DetectBatch analyzes many summaries, scheduling them bucket-at-a-time so
// same-shape series run back-to-back through one cached FFT plan and share
// memoized permutation thresholds. Results land at the input index and each
// is bit-identical to calling Detect on that summary alone (same Seed, same
// thresholds, same verdicts) — batching changes scheduling, never answers.
//
// memo carries thresholds across calls (a daemon shares one memo across
// ticks); pass nil for a private per-call memo. Undersampled summaries
// (fewer than MinEvents events) return before any threshold work and never
// touch the memo.
func (d *Detector) DetectBatch(summaries []*timeseries.ActivitySummary, memo *ThresholdMemo) []BatchResult {
	out := make([]BatchResult, len(summaries))
	if memo == nil {
		memo = NewThresholdMemo(0)
	}
	order := make([]int, len(summaries))
	buckets := make([]Bucket, len(summaries))
	for i, as := range summaries {
		order[i] = i
		buckets[i] = d.BucketOf(as)
	}
	slices.SortFunc(order, func(a, b int) int {
		ba, bb := buckets[a], buckets[b]
		if ba.SeriesLen != bb.SeriesLen {
			return ba.SeriesLen - bb.SeriesLen
		}
		if ba.Events != bb.Events {
			return ba.Events - bb.Events
		}
		return a - b
	})
	for _, i := range order {
		out[i].Result, out[i].Err = d.DetectWithThresholds(summaries[i], memo)
	}
	return out
}
