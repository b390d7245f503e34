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

	pg dsp.Periodogram // Step 1 periodogram of the analyzed series

	shuffled  []float64 // in-place shuffle buffer for the permutation test
	maxima    []float64 // per-permutation spectral maxima
	bins      []int     // candidate bins above the power threshold
	series    []float64 // binned series (Detect entry point)
	intervals []float64 // interval list in seconds (Detect entry point)
	decim     []float64 // decimated series for long windows
	nonzero   []float64 // nonzero interval list
	sample    []float64 // t-test / GMM subsample buffer
	near      []float64 // intervals near a candidate period (jitter estimate)

	// Step 3 works on the nonzero bins of its two bases, the analyzed
	// series and the undecimated one, each extracted at most once per
	// call; a candidate's rebinned series and its ACF lags reuse one
	// buffer each.
	basis    [2]sparseSeries
	rebinned sparseSeries
	acf      []float64
}

var detectScratchPool = sync.Pool{New: func() any {
	return &detectScratch{
		dsp: dsp.NewScratch(),
		rng: rand.New(rand.NewSource(1)),
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
	detectScratchPool.Put(sc)
}

// sparseSeries is a binned series held as its nonzero bins: bin idx[i]
// holds val[i], and every other of its n bins is zero. Step 3's series
// are mostly empty bins, so rebinning and the ACF run over this list.
type sparseSeries struct {
	idx []int
	val []float64
	n   int
}

// load replaces s with the nonzero bins of series.
func (s *sparseSeries) load(series []float64) {
	s.idx, s.val, s.n = s.idx[:0], s.val[:0], len(series)
	for i, v := range series {
		if v != 0 {
			s.idx = append(s.idx, i)
			s.val = append(s.val, v)
		}
	}
}

// rebin sums consecutive groups of factor bins of s into dst (the last
// group may be short) and returns it; for factor <= 1 it returns s
// itself. Each group adds its nonzero bins in index order, which is the
// sum rebinInto takes of the dense series (adding its zeros changes
// nothing), so the two are bit-identical.
func (s *sparseSeries) rebin(dst *sparseSeries, factor int) *sparseSeries {
	if factor <= 1 {
		return s
	}
	dst.idx, dst.val, dst.n = dst.idx[:0], dst.val[:0], (s.n+factor-1)/factor
	for i, at := range s.idx {
		g := at / factor
		if last := len(dst.idx) - 1; last >= 0 && dst.idx[last] == g {
			dst.val[last] += s.val[i]
			continue
		}
		dst.idx = append(dst.idx, g)
		dst.val = append(dst.val, s.val[i])
	}
	return dst
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
