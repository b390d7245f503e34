package core

import (
	"math/rand"
	"sync"

	"baywatch/internal/dsp"
)

// detectScratch bundles every reusable buffer the detector's steady-state
// path touches, so that analyzing one communication pair after the cache has
// warmed performs no heap allocations beyond the returned Result. Instances
// are pooled; each DetectSeries call borrows one for its duration, so a
// scratch is only ever touched by one goroutine at a time.
type detectScratch struct {
	dsp *dsp.Scratch
	rng *rand.Rand

	pg      dsp.Periodogram   // Step 1 periodogram of the analyzed series
	permPGs []dsp.Periodogram // per-permutation periodograms (threshold loop)

	permRows  []float64 // m materialized shuffles, row-major (batch spectrum input)
	shuffled  []float64 // in-place shuffle buffer for the permutation test
	maxima    []float64 // per-permutation spectral maxima
	bins      []int     // candidate bins above the power threshold
	series    []float64 // binned series (Detect entry point)
	intervals []float64 // interval list in seconds (Detect entry point)
	decim     []float64 // decimated series for long windows
	nonzero   []float64 // nonzero interval list
	sample    []float64 // t-test / GMM subsample buffer
	near      []float64 // intervals near a candidate period (jitter estimate)
	rebinned  []float64 // candidate-adapted rebinned series (Step 3)

	// acf caches the autocorrelation per rebin factor within one
	// DetectSeries call; acfFree recycles the value buffers across calls.
	acf     map[int][]float64
	acfFree [][]float64
}

var detectScratchPool = sync.Pool{New: func() any {
	return &detectScratch{
		dsp: dsp.NewScratch(),
		rng: rand.New(rand.NewSource(1)),
		acf: make(map[int][]float64),
	}
}}

// borrowDetectScratch hands the pooled scratch to its caller, who must
// release it with releaseDetectScratch (Detect and DetectSeries defer it).
//
//bw:pool-handoff caller releases via releaseDetectScratch
func borrowDetectScratch() *detectScratch {
	return detectScratchPool.Get().(*detectScratch)
}

func releaseDetectScratch(sc *detectScratch) {
	// Recycle the per-call ACF buffers into the freelist so the next call
	// reuses their backing arrays, then empty the cache (its keys are only
	// meaningful within one DetectSeries call).
	for k, buf := range sc.acf {
		sc.acfFree = append(sc.acfFree, buf)
		delete(sc.acf, k)
	}
	detectScratchPool.Put(sc)
}

// acfBuffer hands out a recycled ACF buffer, or nil to let the dsp layer
// allocate one that will be recycled on release.
func (sc *detectScratch) acfBuffer() []float64 {
	if n := len(sc.acfFree); n > 0 {
		buf := sc.acfFree[n-1]
		sc.acfFree = sc.acfFree[:n-1]
		return buf
	}
	return nil
}

// appendNonzero appends the positive entries of intervals to dst.
func appendNonzero(dst, intervals []float64) []float64 {
	for _, iv := range intervals {
		if iv > 0 {
			dst = append(dst, iv)
		}
	}
	return dst
}

// subsampleInto deterministically picks at most max elements of xs, evenly
// strided, into dst's backing array. When xs is already small enough it is
// returned as-is without copying.
func subsampleInto(dst, xs []float64, max int) []float64 {
	if len(xs) <= max {
		return xs
	}
	out := dst[:0]
	stride := float64(len(xs)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, xs[int(float64(i)*stride)])
	}
	return out
}

// rebinInto sums consecutive groups of factor bins into dst's backing
// array (the last group may be short). For factor <= 1 the input is
// returned unchanged (no copy), so the result must be treated as read-only
// when it may alias series.
func rebinInto(dst, series []float64, factor int) []float64 {
	if factor <= 1 {
		return series
	}
	n := (len(series) + factor - 1) / factor
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	out := dst[:n]
	for g := range out {
		var sum float64
		for _, v := range series[g*factor : min(g*factor+factor, len(series))] {
			sum += v
		}
		out[g] = sum
	}
	return out
}
