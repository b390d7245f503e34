package dsp

import (
	"math"
)

// LagACFInto evaluates the normalised autocorrelation of a series of n
// samples at lags 0..maxLag (clamped to n-1) into dst, grown as needed and
// returned. The estimator is the biased linear one: the series is
// mean-centred, r[t] = Σ_{i<n-t} (x_i - m)(x_{i+t} - m), and the result
// is r[t]/r[0], so lag 0 is 1 — or every lag is 0 when the series has zero
// variance.
//
// The series is given by its nonzero samples: x[idx[i]] = val[i] with idx
// strictly increasing, every other sample zero. Expanding the centred
// product, r[t] = Σ x_i x_{i+t} - m·(Σ_{i<n-t} x_i + Σ_{i≥t} x_i) +
// (n-t)·m²: the products run over pairs of nonzero samples at most maxLag
// apart, and the two partial sums are the total less the first or last t
// samples. The cost is O(nonzero pairs within maxLag + maxLag), not
// O(n log n), which is what lets the detector's step 3 evaluate only the
// lags its hill and trough tests read on series that are mostly empty
// bins. Integer counts give exact products and sums, so lags whose
// nonzero pairs match tie exactly.
func LagACFInto(dst []float64, idx []int, val []float64, n, maxLag int) []float64 {
	if maxLag > n-1 {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return dst[:0]
	}
	r := floatScratch(&dst, maxLag+1)
	clear(r)
	var sum float64
	for a, i := range idx {
		va := val[a]
		sum += va
		for b := a; b < len(idx) && idx[b]-i <= maxLag; b++ {
			r[idx[b]-i] += va * val[b]
		}
	}
	mean := sum / float64(n)
	var head, tail float64 // sums of the first t and the last t samples
	h, tl := 0, len(idx)-1
	for t := range r {
		for ; h < len(idx) && idx[h] < t; h++ {
			head += val[h]
		}
		for ; tl >= 0 && idx[tl] >= n-t; tl-- {
			tail += val[tl]
		}
		r[t] += mean * (float64(n-t)*mean - (2*sum - head - tail))
	}
	norm := r[0]
	if norm <= 0 || math.IsNaN(norm) {
		clear(r)
		return r // zero-variance series: ACF identically zero
	}
	for t := 1; t < len(r); t++ {
		r[t] /= norm
	}
	r[0] = 1
	return r
}

// HillResult describes the outcome of validating a candidate lag on the ACF.
type HillResult struct {
	// OnHill is true when the ACF around the candidate rises then falls,
	// i.e. the candidate sits on a genuine autocorrelation peak rather than
	// on the flank of one or on noise.
	OnHill bool
	// PeakLag is the lag (in samples) of the local ACF maximum inside the
	// search window; it refines the candidate period estimate.
	PeakLag int
	// PeakValue is the normalized ACF value at PeakLag.
	PeakValue float64
	// SlopeLeft and SlopeRight are the slopes of the two least-squares line
	// segments fitted on either side of the split point.
	SlopeLeft, SlopeRight float64
}

// ValidateHill checks whether the ACF has a hill shape within the closed lag
// window [lo, hi], following the segmented-regression test of Vlachos et al.:
// fit one line to the left part and one to the right part of the window at
// the split that minimizes total squared error; the window is a hill when
// the left slope is positive and the right slope negative.
//
// The window is clamped to [1, len(acf)-1]. An empty or single-point window
// yields OnHill == false.
func ValidateHill(acf []float64, lo, hi int) HillResult {
	if lo < 1 {
		lo = 1
	}
	if hi > len(acf)-1 {
		hi = len(acf) - 1
	}
	res := HillResult{}
	if hi-lo < 2 {
		if lo >= 1 && lo <= hi {
			res.PeakLag = lo
			res.PeakValue = acf[lo]
		}
		return res
	}

	// Locate the in-window maximum: the refined period estimate.
	res.PeakLag = lo
	res.PeakValue = acf[lo]
	for l := lo + 1; l <= hi; l++ {
		if acf[l] > res.PeakValue {
			res.PeakValue = acf[l]
			res.PeakLag = l
		}
	}

	// Two-segment regression over the window; pick the split minimizing SSE.
	bestErr := math.Inf(1)
	var bestL, bestR lineFit
	for split := lo + 1; split < hi; split++ {
		l := fitLine(acf, lo, split)
		r := fitLine(acf, split, hi)
		if e := l.sse + r.sse; e < bestErr {
			bestErr = e
			bestL, bestR = l, r
		}
	}
	res.SlopeLeft = bestL.slope
	res.SlopeRight = bestR.slope
	res.OnHill = bestL.slope > 0 && bestR.slope < 0

	// The regression test assumes a smooth hill; a clean (low-jitter)
	// periodic signal instead produces a sharp ACF spike on an otherwise
	// flat window, which fools the line fits. Accept such spikes via a
	// prominence criterion: the peak is strictly inside the window and
	// stands well above the window-edge baseline.
	if !res.OnHill && res.PeakLag > lo && res.PeakLag < hi {
		baseline := (acf[lo] + acf[hi]) / 2
		if res.PeakValue > 0 && res.PeakValue-baseline >= 0.3*res.PeakValue {
			res.OnHill = true
		}
	}
	return res
}

type lineFit struct {
	slope, intercept, sse float64
}

// fitLine least-squares fits acf[lo..hi] (inclusive) against the lag index.
func fitLine(acf []float64, lo, hi int) lineFit {
	n := float64(hi - lo + 1)
	var sx, sy, sxx, sxy float64
	for i := lo; i <= hi; i++ {
		x := float64(i)
		y := acf[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	var f lineFit
	if denom == 0 {
		f.intercept = sy / n
	} else {
		f.slope = (n*sxy - sx*sy) / denom
		f.intercept = (sy - f.slope*sx) / n
	}
	for i := lo; i <= hi; i++ {
		d := acf[i] - (f.slope*float64(i) + f.intercept)
		f.sse += d * d
	}
	return f
}
