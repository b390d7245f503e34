package dsp

import (
	"errors"
	"math"
)

// ErrShortSeries is returned when a series is too short for spectral
// analysis.
var ErrShortSeries = errors.New("dsp: series too short for spectral analysis")

// Periodogram holds the one-sided power spectral density estimate of a
// real-valued series of n samples taken at a fixed interval. The spectrum
// is evaluated on the grid of the series zero-padded to N =
// NextPowerOfTwo(n) samples: padding interpolates between the n-point
// DFT's bins (it adds no information and removes none), and it lets every
// length run through one power-of-two transform.
type Periodogram struct {
	// Power[k] is |X(k)|^2 / n for k = 0..N/2 (DC term included at index
	// 0), where X is the N-point DFT of the mean-centred, zero-padded
	// series and n the number of real samples.
	Power []float64
	// N is the padded transform length, which fixes the bin grid:
	// bin k is the frequency k/(N·SampleInterval).
	N int
	// SampleInterval is the spacing between consecutive samples, in seconds.
	SampleInterval float64
}

// ComputePeriodogram estimates the power spectrum of x, whose samples are
// sampleInterval seconds apart. The mean is removed first so that the DC
// component does not dominate the spectrum; the detector is interested in
// oscillations around the mean rate, not the rate itself. The centred
// series is then zero-padded to the next power of two (see Periodogram).
func ComputePeriodogram(x []float64, sampleInterval float64) (*Periodogram, error) {
	pg := &Periodogram{}
	s := borrowScratch()
	defer releaseScratch(s)
	if err := s.PeriodogramInto(pg, x, sampleInterval); err != nil {
		return nil, err
	}
	return pg, nil
}

// Frequency returns the frequency in Hz corresponding to bin k.
func (p *Periodogram) Frequency(k int) float64 {
	return float64(k) / (float64(p.N) * p.SampleInterval)
}

// Period returns the period in seconds corresponding to bin k. It returns
// +Inf for the DC bin (k = 0).
func (p *Periodogram) Period(k int) float64 {
	if k == 0 {
		return inf()
	}
	return float64(p.N) * p.SampleInterval / float64(k)
}

// PeriodBounds returns the range of periods (low, high) that bin k covers:
// the midpoints toward the neighboring bins. The ACF verification step
// searches for a hill inside this window.
func (p *Periodogram) PeriodBounds(k int) (low, high float64) {
	if k <= 0 {
		return inf(), inf()
	}
	total := float64(p.N) * p.SampleInterval
	// Bin k+1 has a shorter period, bin k-1 a longer one.
	low = (total/float64(k) + total/float64(k+1)) / 2
	if k == 1 {
		high = total
	} else {
		high = (total/float64(k) + total/float64(k-1)) / 2
	}
	return low, high
}

// MaxPower returns the largest power among the non-DC bins and its index.
// It returns (0, 0) when the periodogram has fewer than two bins.
func (p *Periodogram) MaxPower() (power float64, bin int) {
	for k := 1; k < len(p.Power); k++ {
		if p.Power[k] > power {
			power = p.Power[k]
			bin = k
		}
	}
	return power, bin
}

// BinsAbove returns the indices of non-DC bins whose power strictly exceeds
// threshold, in decreasing order of power.
func (p *Periodogram) BinsAbove(threshold float64) []int {
	return p.BinsAboveInto(nil, threshold)
}

// BinsAboveInto is BinsAbove writing into dst's backing array (which is
// grown as needed), for callers reusing a bin buffer across periodograms.
func (p *Periodogram) BinsAboveInto(dst []int, threshold float64) []int {
	idx := dst[:0]
	for k := 1; k < len(p.Power); k++ {
		if p.Power[k] > threshold {
			idx = append(idx, k)
		}
	}
	// Insertion sort by power descending; candidate sets are tiny.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && p.Power[idx[j]] > p.Power[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func inf() float64 {
	return math.Inf(1)
}
