// Package timeseries defines the ActivitySummary data structure that flows
// through BAYWATCH's MapReduce jobs: the per-communication-pair request
// history represented as a first timestamp plus a list of inter-request
// intervals at a given time scale. It also implements the operations the
// paper's rescaling/merging phase performs — converting raw timestamps to
// summaries, rescaling summaries to coarser granularities, and merging
// summaries of the same pair — and the interval-list symbolization used for
// feature extraction.
package timeseries

import (
	"errors"
	"fmt"
	"sort"
)

// ErrNoEvents is returned when building a summary from an empty timestamp
// list.
var ErrNoEvents = errors.New("timeseries: no events")

// ErrScaleMismatch is returned when merging summaries at different scales.
var ErrScaleMismatch = errors.New("timeseries: scale mismatch")

// ActivitySummary is the per-pair request history at a fixed time scale.
// It corresponds directly to the ActivitySummary record of Sect. VII-A:
// source/destination pair, time scale e, first request timestamp, and the
// list of inter-request intervals, plus optional side-channel information
// (URL paths) consumed by the token filter.
type ActivitySummary struct {
	// Source identifies the internal endpoint (MAC or IP).
	Source string `json:"source"`
	// Destination identifies the external endpoint (domain or IP).
	Destination string `json:"destination"`
	// Scale is the time granularity in seconds (1 at the finest level).
	Scale int64 `json:"scale"`
	// First is the first request timestamp, in Unix seconds.
	First int64 `json:"first"`
	// Intervals are the gaps between consecutive requests, expressed in
	// units of Scale. A zero interval means two requests fell into the same
	// time bucket.
	Intervals []int64 `json:"intervals"`
	// URLPaths carries a bounded sample of observed URL paths for the token
	// filter. May be nil when the data source has no URL information.
	URLPaths []string `json:"urlPaths,omitempty"`
}

// PairKey returns the canonical "source|destination" key used for grouping
// and hashing throughout the pipeline.
func (a *ActivitySummary) PairKey() string {
	return a.Source + "|" + a.Destination
}

// EventCount returns the number of requests the summary represents.
func (a *ActivitySummary) EventCount() int {
	return len(a.Intervals) + 1
}

// Span returns the total covered duration in seconds.
func (a *ActivitySummary) Span() int64 {
	var total int64
	for _, iv := range a.Intervals {
		total += iv
	}
	return total * a.Scale
}

// Timestamps reconstructs the request timestamps (Unix seconds, quantized to
// Scale) from the summary.
func (a *ActivitySummary) Timestamps() []int64 {
	out := make([]int64, 1, len(a.Intervals)+1)
	out[0] = a.First
	t := a.First
	for _, iv := range a.Intervals {
		t += iv * a.Scale
		out = append(out, t)
	}
	return out
}

// IntervalsSeconds returns the interval list converted to seconds as
// float64s, the form the pruning statistics operate on.
func (a *ActivitySummary) IntervalsSeconds() []float64 {
	return a.AppendIntervalsSeconds(nil)
}

// AppendIntervalsSeconds appends the interval list, converted to seconds,
// to dst and returns the extended slice. Callers processing many summaries
// reuse one buffer (dst[:0]) across calls to avoid per-pair allocations.
func (a *ActivitySummary) AppendIntervalsSeconds(dst []float64) []float64 {
	if cap(dst)-len(dst) < len(a.Intervals) {
		grown := make([]float64, len(dst), len(dst)+len(a.Intervals))
		copy(grown, dst)
		dst = grown
	}
	for _, iv := range a.Intervals {
		dst = append(dst, float64(iv*a.Scale))
	}
	return dst
}

// FromTimestamps builds an ActivitySummary from raw request timestamps
// (Unix seconds, any order) at the given scale. Timestamps are sorted and
// quantized to the scale; duplicates within a bucket are preserved as
// zero intervals, matching the paper's treatment (a zero interval is later
// symbolized as 'y').
func FromTimestamps(source, destination string, ts []int64, scale int64) (*ActivitySummary, error) {
	if len(ts) == 0 {
		return nil, ErrNoEvents
	}
	if scale <= 0 {
		return nil, fmt.Errorf("timeseries: scale must be positive, got %d", scale)
	}
	sorted := append([]int64(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	first := (sorted[0] / scale) * scale
	var intervals []int64
	if len(sorted) > 1 {
		intervals = make([]int64, 0, len(sorted)-1)
		prev := sorted[0] / scale
		for _, t := range sorted[1:] {
			b := t / scale
			intervals = append(intervals, b-prev)
			prev = b
		}
	}
	return &ActivitySummary{
		Source:      source,
		Destination: destination,
		Scale:       scale,
		First:       first,
		Intervals:   intervals,
	}, nil
}

// Rescale converts the summary to a coarser scale. The new scale must be a
// positive multiple of the current one; rescaling re-buckets the
// reconstructed timestamps, so events that collapse into the same coarse
// bucket become zero intervals.
func (a *ActivitySummary) Rescale(newScale int64) (*ActivitySummary, error) {
	if newScale <= 0 || newScale%a.Scale != 0 {
		return nil, fmt.Errorf("timeseries: new scale %d must be a positive multiple of %d", newScale, a.Scale)
	}
	if newScale == a.Scale {
		cp := *a
		cp.Intervals = append([]int64(nil), a.Intervals...)
		cp.URLPaths = append([]string(nil), a.URLPaths...)
		return &cp, nil
	}
	ts := a.Timestamps()
	out, err := FromTimestamps(a.Source, a.Destination, ts, newScale)
	if err != nil {
		return nil, err
	}
	out.URLPaths = append([]string(nil), a.URLPaths...)
	return out, nil
}

// Merge combines two summaries of the same pair and scale into one covering
// the union of their events. It is the REDUCE-side merge of the
// rescaling/merging job: daily summaries merge into weekly or monthly ones
// without reprocessing raw logs.
func Merge(a, b *ActivitySummary) (*ActivitySummary, error) {
	if a == nil {
		return b, nil
	}
	if b == nil {
		return a, nil
	}
	if a.Scale != b.Scale {
		return nil, fmt.Errorf("%w: %d vs %d", ErrScaleMismatch, a.Scale, b.Scale)
	}
	if a.Source != b.Source || a.Destination != b.Destination {
		return nil, fmt.Errorf("timeseries: cannot merge different pairs %s and %s", a.PairKey(), b.PairKey())
	}
	ts := append(a.Timestamps(), b.Timestamps()...)
	out, err := FromTimestamps(a.Source, a.Destination, ts, a.Scale)
	if err != nil {
		return nil, err
	}
	out.URLPaths = mergePaths(a.URLPaths, b.URLPaths, maxURLPathSample)
	return out, nil
}

// maxURLPathSample bounds the URL-path side channel carried per summary so
// that heavy pairs do not bloat the shuffle.
const maxURLPathSample = 32

func mergePaths(a, b []string, limit int) []string {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	seen := make(map[string]struct{}, len(a)+len(b))
	out := make([]string, 0, limit)
	for _, s := range [][]string{a, b} {
		for _, p := range s {
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			out = append(out, p)
			if len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// AddURLPath records a URL path observation, deduplicated and bounded.
func (a *ActivitySummary) AddURLPath(path string) {
	if path == "" || len(a.URLPaths) >= maxURLPathSample {
		return
	}
	for _, p := range a.URLPaths {
		if p == path {
			return
		}
	}
	a.URLPaths = append(a.URLPaths, path)
}

// BinSeries converts the summary into a dense binary/count time series at
// its scale: series[i] is the number of requests in bucket i, starting at
// the bucket of First. maxLen caps the series length to bound FFT cost; a
// zero or negative maxLen means no cap. The returned series always covers
// the full span (capped), including trailing empty buckets up to the last
// event.
func (a *ActivitySummary) BinSeries(maxLen int) []float64 {
	return a.BinSeriesInto(nil, maxLen)
}

// BinSeriesInto is BinSeries writing into dst's backing array (grown as
// needed), for callers reusing a series buffer across summaries.
func (a *ActivitySummary) BinSeriesInto(dst []float64, maxLen int) []float64 {
	var span int64
	for _, iv := range a.Intervals {
		span += iv
	}
	n := int(span) + 1
	if maxLen > 0 && n > maxLen {
		n = maxLen
	}
	if n < 1 {
		n = 1
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	series := dst[:n]
	clear(series)
	pos := int64(0)
	series[0] = 1
	for _, iv := range a.Intervals {
		pos += iv
		if pos >= int64(n) {
			break
		}
		series[pos]++
	}
	return series
}
