package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of an ascending
// slice; 0 when the slice is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s))-rankSlack)) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// rankSlack keeps a rank that is a whole number in exact arithmetic
// (99.9% of 20000) from rounding up to the next one.
const rankSlack = 1e-9

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// tailPercentiles are the candidates tail picks from, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest percentile that has at least ten samples beyond
// it, and its value: a p99 over 500 samples rests on five of them, so the
// tail of a short run is a lower percentile rather than a noisier number.
// With fewer than twenty samples nothing above the median qualifies and
// the median is returned.
func tail(xs []float64) (p, v float64) {
	s := sorted(xs)
	for _, p := range tailPercentiles {
		rank := int(math.Ceil(p*float64(len(s))/100 - rankSlack))
		if len(s)-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 50, quantile(s, 0.5)
}

// observation is one published generation as the poller saw it: the
// instant it arrived and how many of the run's appended events it covers.
type observation struct {
	at      time.Duration
	covered int
}

// freshness turns an open-loop run into one delay per appended event:
// from the instant the event was due to be appended (not the instant the
// appender got round to it, so a generator stall counts against the
// events it delayed) to the arrival of the first generation covering it.
// Events no observation covers within limit of their due time are missed.
// due is ascending; obs is in arrival order with non-decreasing covered.
func freshness(due []time.Duration, obs []observation, limit time.Duration) (delaysMs []float64, missed int) {
	delaysMs = make([]float64, 0, len(due))
	o := 0
	for i, d := range due {
		for o < len(obs) && obs[o].covered <= i {
			o++
		}
		if o == len(obs) || obs[o].at-d > limit {
			missed++
			continue
		}
		delaysMs = append(delaysMs, float64(obs[o].at-d)/1e6)
	}
	return delaysMs, missed
}

// slope is the least-squares slope of y over x (0 with fewer than two
// distinct x).
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
