package stats

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// GMM is a one-dimensional Gaussian mixture model. BAYWATCH fits a GMM to
// the inter-request interval list of a communication pair: a multi-modal
// fit (selected by BIC) exposes multiple coexisting beaconing periods, such
// as Conficker's fast-beacon/long-sleep alternation.
type GMM struct {
	// Weights, Means and StdDevs are the per-component mixture parameters.
	// All three slices have the same length K.
	Weights []float64
	Means   []float64
	StdDevs []float64
	// LogLikelihood is the total log-likelihood of the training data under
	// the fitted model.
	LogLikelihood float64
	// BIC is the Bayesian information criterion: -2*logL + p*ln(n) with
	// p = 3K - 1 free parameters. Lower is better.
	BIC float64
	// Iterations is the number of EM iterations performed before
	// convergence (or the iteration cap).
	Iterations int
}

// GMMConfig controls the EM fit.
type GMMConfig struct {
	// MaxIterations caps the EM loop. Defaults to 200.
	MaxIterations int
	// Tolerance stops EM when the log-likelihood improvement per point
	// falls below it. Defaults to 1e-8.
	Tolerance float64
	// MinStdDev floors the component standard deviations to keep the
	// likelihood bounded when a component collapses onto duplicated points.
	// Defaults to 1e-3 times the data range (or 1e-6 absolute for
	// degenerate data).
	MinStdDev float64
}

func (c GMMConfig) withDefaults(xs []float64) GMMConfig {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 200
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-8
	}
	if c.MinStdDev <= 0 {
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		c.MinStdDev = (mx - mn) * 1e-3
		if c.MinStdDev <= 0 {
			c.MinStdDev = 1e-6
		}
	}
	return c
}

// ErrBadComponentCount is returned when k is not positive or exceeds the
// number of observations.
var ErrBadComponentCount = errors.New("stats: component count must be in [1, len(data)]")

// FitGMM fits a k-component mixture to xs with expectation-maximization.
// Initialization is deterministic (quantile-based), so repeated fits on the
// same data produce identical models — a requirement for reproducible
// pipeline runs.
func FitGMM(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	n := len(xs)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadComponentCount, k, n)
	}
	return newGMMSample(xs, k).fit(k, cfg.withDefaults(xs)), nil
}

// gmmSample is a sample prepared for EM. Intervals are whole seconds, so a
// pair's few hundred of them take a few dozen distinct values: EM runs
// over the distinct values (vals) weighted by their multiplicities
// (counts), which is the same likelihood and the same fixed point with
// far fewer point×component terms. sorted keeps every point for the
// quantile initialisation and the dead-component re-seed, and work holds
// the responsibilities and per-component constants for up to the k the
// sample was prepared for.
type gmmSample struct {
	sorted, vals, counts, work []float64
}

func newGMMSample(xs []float64, maxK int) gmmSample {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Distinct means bit-identical: exact duplicates, nothing within a
	// tolerance.
	distinct := func(i int) bool {
		return i == 0 || math.Float64bits(sorted[i]) != math.Float64bits(sorted[i-1])
	}
	d := 0
	for i := range sorted {
		if distinct(i) {
			d++
		}
	}
	buf := make([]float64, 2*d+maxK*(d+2))
	s := gmmSample{sorted: sorted, vals: buf[:0:d], counts: buf[d : d : 2*d], work: buf[2*d:]}
	for i, x := range sorted {
		if distinct(i) {
			s.vals = append(s.vals, x)
			s.counts = append(s.counts, 0)
		}
		s.counts[len(s.counts)-1]++
	}
	return s
}

// halfLog2Pi is ½·log(2π), the constant term of a Gaussian log-density.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// fit runs EM for 1 <= k <= len(s.sorted) components; cfg has its
// defaults applied. The log-likelihood, weights, BIC and the convergence
// test count points, not distinct values.
func (s gmmSample) fit(k int, cfg GMMConfig) *GMM {
	sorted, vals := s.sorted, s.vals
	n, d := len(sorted), len(vals)
	g := &GMM{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		StdDevs: make([]float64, k),
	}
	// Quantile initialization: component j owns the j-th slice of the
	// sorted data.
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		seg := sorted[lo:hi]
		g.Weights[j] = float64(len(seg)) / float64(n)
		g.Means[j] = Mean(seg)
		sd := StdDev(seg)
		if sd < cfg.MinStdDev {
			sd = cfg.MinStdDev
		}
		g.StdDevs[j] = sd
	}

	// resp[u*k+j] is the summed responsibility of component j for the
	// counts[u] points at vals[u]. logC[j] and halfPrec[j] hold the
	// per-iteration constants of component j's weighted log-density:
	// log w − log σ − ½ log 2π and 1/(2σ²).
	resp := s.work[:k*d]
	logC := s.work[k*d : k*d+k]
	halfPrec := s.work[k*d+k : k*d+2*k]

	prevLL := math.Inf(-1)
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		g.Iterations = iter
		for j := 0; j < k; j++ {
			sd := g.StdDevs[j]
			logC[j] = math.Log(math.Max(g.Weights[j], 1e-300)) - math.Log(sd) - halfLog2Pi
			halfPrec[j] = 1 / (2 * sd * sd)
		}
		ll := eStep(vals, s.counts, g.Means, logC, halfPrec, resp)
		g.LogLikelihood = ll

		// M-step.
		for j := 0; j < k; j++ {
			var nj, mu float64
			for u, x := range vals {
				r := resp[u*k+j]
				nj += r
				mu += r * x
			}
			if nj < 1e-10 {
				// Dead component: re-seed it on the most extreme point to
				// keep the model full rank.
				g.Weights[j] = 1e-6
				g.Means[j] = sorted[n-1]
				g.StdDevs[j] = cfg.MinStdDev
				continue
			}
			mu /= nj
			var va float64
			for u, x := range vals {
				dx := x - mu
				va += resp[u*k+j] * dx * dx
			}
			va /= nj
			g.Weights[j] = nj / float64(n)
			g.Means[j] = mu
			sd := math.Sqrt(va)
			if sd < cfg.MinStdDev {
				sd = cfg.MinStdDev
			}
			g.StdDevs[j] = sd
		}

		if ll-prevLL < cfg.Tolerance*float64(n) && iter > 1 {
			break
		}
		prevLL = ll
	}

	p := float64(3*k - 1)
	g.BIC = -2*g.LogLikelihood + p*math.Log(float64(n))
	return g
}

// eStep writes the responsibilities of every distinct value, scaled by its
// count, into resp (value-major, k = len(means) per value) and returns the
// log-likelihood of all the points. Value u's log-sum-exp is
// max_j lp_j + log s_u with s_u = Σ_j exp(lp_j − max): the lp_j take no
// transcendental (logC and halfPrec are hoisted), each term's exp is taken
// once and reused as the unnormalised responsibility, and since every s_u
// lies in [1, k] the counts[u]·log s_u are summed as the log of a running
// product with s_u taken once per point, one log per chunk of points. The
// chunk is 256 points, fewer once k^256 could pass 2^1023.
func eStep(vals, counts, means, logC, halfPrec, resp []float64) float64 {
	k := len(means)
	chunk := 256
	if c := 1023 / bits.Len(uint(k)); c < chunk {
		chunk = c
	}
	var ll float64
	prod, left := 1.0, chunk
	for u, x := range vals {
		r := resp[u*k : u*k+k]
		maxLp := math.Inf(-1)
		for j, mu := range means {
			d := x - mu
			lp := logC[j] - halfPrec[j]*d*d
			r[j] = lp
			if lp > maxLp {
				maxLp = lp
			}
		}
		var sum float64
		for j, lp := range r {
			e := math.Exp(lp - maxLp)
			r[j] = e
			sum += e
		}
		c := counts[u]
		scale := c / sum
		for j := range r {
			r[j] *= scale
		}
		ll += c * maxLp
		for m := int(c); m > 0; m-- {
			prod *= sum
			if left--; left == 0 {
				ll += math.Log(prod)
				prod, left = 1, chunk
			}
		}
	}
	return ll + math.Log(prod)
}

// GMMSelection is the result of BIC-based model selection across component
// counts.
type GMMSelection struct {
	// Best is the model with the lowest BIC.
	Best *GMM
	// K is the chosen component count.
	K int
	// BICs[k-1] is the BIC of the k-component fit, for k = 1..len(BICs).
	BICs []float64
}

// FitBestGMM fits mixtures with 1..maxK components and returns the one with
// the lowest BIC, reproducing the "BIC vs #components" selection of the
// paper's Fig. 7. maxK is clamped to len(xs).
func FitBestGMM(xs []float64, maxK int, cfg GMMConfig) (*GMMSelection, error) {
	if len(xs) == 0 {
		return nil, ErrNoData
	}
	if maxK < 1 {
		maxK = 1
	}
	if maxK > len(xs) {
		maxK = len(xs)
	}
	// The fits share one prepared sample (sorted copy, distinct values,
	// responsibility buffer sized for the largest k) and one set of
	// defaults.
	s := newGMMSample(xs, maxK)
	cfg = cfg.withDefaults(xs)
	sel := &GMMSelection{BICs: make([]float64, 0, maxK)}
	for k := 1; k <= maxK; k++ {
		g := s.fit(k, cfg)
		sel.BICs = append(sel.BICs, g.BIC)
		if sel.Best == nil || g.BIC < sel.Best.BIC {
			sel.Best = g
			sel.K = k
		}
	}
	return sel, nil
}

// DominantComponents returns the means of components whose weight is at
// least minWeight, ordered by descending weight. These are the candidate
// periods a multi-modal interval distribution suggests.
func (g *GMM) DominantComponents(minWeight float64) []float64 {
	type comp struct{ w, m float64 }
	var cs []comp
	for j := range g.Weights {
		if g.Weights[j] >= minWeight {
			cs = append(cs, comp{g.Weights[j], g.Means[j]})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].w > cs[j].w })
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = c.m
	}
	return out
}
