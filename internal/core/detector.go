package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"baywatch/internal/dsp"
	"baywatch/internal/fmath"
	"baywatch/internal/stats"
	"baywatch/internal/timeseries"
)

// Origin identifies how a candidate period was proposed.
type Origin int

const (
	// OriginPeriodogram marks candidates from the spectral analysis of
	// Step 1.
	OriginPeriodogram Origin = iota + 1
	// OriginGMM marks candidates promoted from dominant Gaussian-mixture
	// components of the interval list during Step 2.
	OriginGMM
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case OriginPeriodogram:
		return "periodogram"
	case OriginGMM:
		return "gmm"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// RejectReason explains why a candidate was pruned. Zero means the
// candidate survived.
type RejectReason int

const (
	// RejectNone marks surviving candidates.
	RejectNone RejectReason = iota
	// RejectHighFrequency prunes periods below the minimum observed
	// interval (Step 2, high-frequency-noise rule).
	RejectHighFrequency
	// RejectTTest prunes periods the one-sample t-test finds inconsistent
	// with the observed intervals (p < alpha).
	RejectTTest
	// RejectTooFewCycles prunes periods longer than the window allows
	// (fewer than MinCycles repetitions observable).
	RejectTooFewCycles
	// RejectNotOnHill prunes candidates whose ACF neighborhood is not a
	// hill (Step 3).
	RejectNotOnHill
	// RejectLowACF prunes candidates whose refined ACF value falls below
	// MinACFScore (Step 3).
	RejectLowACF
	// RejectDuplicate prunes candidates within 10% of a stronger surviving
	// candidate.
	RejectDuplicate
)

// String implements fmt.Stringer.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "kept"
	case RejectHighFrequency:
		return "high-frequency noise"
	case RejectTTest:
		return "t-test"
	case RejectTooFewCycles:
		return "too few cycles"
	case RejectNotOnHill:
		return "not on ACF hill"
	case RejectLowACF:
		return "low ACF score"
	case RejectDuplicate:
		return "duplicate"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(r))
	}
}

// Candidate is one candidate period with the statistics gathered across the
// three steps. Rejected candidates are retained in Result.Candidates for
// diagnostics (reproducing the per-candidate tables of the paper's Fig. 6).
type Candidate struct {
	// Origin says which step proposed the candidate.
	Origin Origin
	// Bin is the periodogram bin (0 for GMM candidates).
	Bin int
	// Frequency in Hz (0 for GMM candidates before verification).
	Frequency float64
	// Period is the proposed period in seconds.
	Period float64
	// RefinedPeriod is the ACF-refined period in seconds (0 until Step 3).
	RefinedPeriod float64
	// Power is the spectral power at Bin (0 for GMM candidates).
	Power float64
	// PValue is the pruning t-test p-value (1 when the test was skipped).
	PValue float64
	// ACFScore is the normalized autocorrelation at the refined lag (for
	// renewal-accepted candidates, a discounted concentration score).
	ACFScore float64
	// Renewal is true when the candidate was accepted through the
	// interval-concentration fallback rather than ACF verification
	// (sleep-loop malware with accumulated timing drift).
	Renewal bool
	// Reason is RejectNone for survivors and the pruning cause otherwise.
	Reason RejectReason
}

// BestPeriod returns the refined period when available and the raw proposal
// otherwise.
func (c Candidate) BestPeriod() float64 {
	if c.RefinedPeriod > 0 {
		return c.RefinedPeriod
	}
	return c.Period
}

// Result is the outcome of running the detector on one communication pair.
type Result struct {
	// Periodic is true when at least one candidate survived all steps.
	Periodic bool
	// Kept lists the surviving candidates, strongest first (by ACF score,
	// then power).
	Kept []Candidate
	// Candidates lists every candidate considered, including rejected
	// ones, for diagnostics and ablation studies.
	Candidates []Candidate
	// PowerThreshold is the permutation-derived spectral power threshold.
	PowerThreshold float64
	// SeriesLen is the length of the analyzed binned series.
	SeriesLen int
	// EventCount is the number of requests analyzed.
	EventCount int
	// Undersampled is true when the series failed the sampling-rate check
	// and no spectral analysis was attempted.
	Undersampled bool
	// GMM is the selected interval mixture model (nil when the interval
	// list was too small to fit).
	GMM *stats.GMMSelection
}

// Score summarizes the periodicity strength of the result in [0, 1]: the
// best candidate's ACF score, damped by the relative spread of the
// intervals matching that candidate. Non-periodic results score 0.
func (r *Result) Score() float64 {
	if !r.Periodic || len(r.Kept) == 0 {
		return 0
	}
	s := r.Kept[0].ACFScore
	if s < 0 {
		return 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// DominantPeriods returns the surviving periods in seconds, strongest
// first.
func (r *Result) DominantPeriods() []float64 {
	out := make([]float64, len(r.Kept))
	for i, c := range r.Kept {
		out[i] = c.BestPeriod()
	}
	return out
}

// Detector runs the three-step periodicity detection. A Detector is
// immutable after creation and safe for concurrent use; per-call randomness
// is derived deterministically from the configured seed and the input.
type Detector struct {
	cfg Config
}

// NewDetector validates cfg (replacing out-of-range fields with defaults)
// and returns a ready Detector.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg.sanitized()}
}

// Config returns the effective (sanitized) configuration.
func (d *Detector) Config() Config {
	return d.cfg
}

// Detect analyzes an ActivitySummary at its native scale.
func (d *Detector) Detect(as *timeseries.ActivitySummary) (*Result, error) {
	return d.DetectWithThresholds(as, nil)
}

// DetectWithThresholds is Detect consulting (and feeding) a shared
// permutation-threshold memo. Passing nil is equivalent to Detect. Results
// are bit-identical either way: the threshold is a pure function of the
// seed and the binned series' value multiset, so a memo hit returns exactly
// the value a cold computation would.
func (d *Detector) DetectWithThresholds(as *timeseries.ActivitySummary, memo *ThresholdMemo) (*Result, error) {
	if as == nil {
		return nil, fmt.Errorf("core: nil activity summary")
	}
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	sc.series = as.BinSeriesInto(sc.series, d.cfg.MaxSeriesLen)
	sc.intervals = as.AppendIntervalsSeconds(sc.intervals[:0])
	return d.detectSeries(sc, sc.series, float64(as.Scale), sc.intervals, memo)
}

// DetectSeries analyzes a pre-binned series directly. sampleInterval is the
// bin width in seconds; intervals is the raw inter-request interval list in
// seconds (used by the pruning statistics — pass nil to derive pruning
// bounds from the series itself).
//
// Long series are decimated (rebinned to coarser buckets) before spectral
// analysis so the permutation test stays affordable over multi-day windows;
// short-period candidates surfaced by the interval GMM are still verified
// against the original fine-grained series.
func (d *Detector) DetectSeries(series []float64, sampleInterval float64, intervals []float64) (*Result, error) {
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	return d.detectSeries(sc, series, sampleInterval, intervals, nil)
}

// detectSeries is DetectSeries running over a borrowed scratch; every
// intermediate buffer (shuffles, spectra, interval lists, nonzero bins,
// rebinned series, ACF lags) comes from sc, so the steady-state path
// allocates only the returned Result.
func (d *Detector) detectSeries(sc *detectScratch, series []float64, sampleInterval float64, intervals []float64, memo *ThresholdMemo) (*Result, error) {
	cfg := d.cfg
	res := &Result{SeriesLen: len(series), EventCount: countEvents(series)}

	if res.EventCount < cfg.MinEvents || len(series) < 4 {
		res.Undersampled = true
		return res, nil
	}

	origSeries, origInterval := series, sampleInterval
	if len(series) > cfg.MaxAnalysisBins {
		decimation := (len(series) + cfg.MaxAnalysisBins - 1) / cfg.MaxAnalysisBins
		sc.decim = rebinInto(sc.decim, series, decimation)
		series = sc.decim
		sampleInterval *= float64(decimation)
	}

	// ---- Step 1: periodogram + permutation threshold -------------------
	if err := sc.dsp.PeriodogramInto(&sc.pg, series, sampleInterval); err != nil {
		return nil, fmt.Errorf("periodogram: %w", err)
	}
	pg := &sc.pg
	res.PowerThreshold = d.permutationThreshold(sc, series, memo)
	sc.bins = pg.BinsAboveInto(sc.bins, res.PowerThreshold)
	bins := sc.bins
	if len(bins) > cfg.MaxCandidates {
		bins = bins[:cfg.MaxCandidates]
	}
	if len(bins) > 0 { // room for the GMM's candidates too: one allocation
		res.Candidates = make([]Candidate, 0, len(bins)+cfg.GMMMaxComponents)
	}
	for _, k := range bins {
		res.Candidates = append(res.Candidates, Candidate{
			Origin:    OriginPeriodogram,
			Bin:       k,
			Frequency: pg.Frequency(k),
			Period:    pg.Period(k),
			Power:     pg.Power[k],
			PValue:    1,
		})
	}

	// ---- Step 2: pruning ------------------------------------------------
	sc.nonzero = appendNonzero(sc.nonzero[:0], intervals)
	nonzero := sc.nonzero
	span := sampleInterval * float64(len(series))
	var minInterval float64
	if len(nonzero) > 0 {
		minInterval, _ = stats.Min(nonzero)
	} else {
		minInterval = sampleInterval
	}

	// Interval clustering: a BIC-selected GMM exposes multi-modal interval
	// structure; its dominant component means become candidates too.
	if len(nonzero) >= cfg.MinEvents {
		sample := subsampleInto(sc.sample[:0], nonzero, cfg.GMMMaxIntervalSample)
		if len(nonzero) > cfg.GMMMaxIntervalSample {
			sc.sample = sample // retain the grown backing array
		}
		if sel, gmmErr := stats.FitBestGMM(sample, cfg.GMMMaxComponents, stats.GMMConfig{}); gmmErr == nil {
			res.GMM = sel
			// Dominant component means become candidate periods. This also
			// covers the single-component case: under heavy timing jitter
			// the spectral peak sinks below the permutation threshold while
			// the interval distribution still concentrates around the true
			// period; the ACF verification decides whether the mean is a
			// real period (Poisson-like traffic fails it).
			// Proximity to existing periodogram candidates is NOT checked
			// here: a periodogram candidate near the same period may still
			// be pruned (e.g. by bin-quantization at the min-interval
			// boundary), and the final dedupe pass removes genuine
			// duplicates among survivors.
			doms := sel.Best.DominantComponents(cfg.GMMMinWeight)
			res.Candidates = slices.Grow(res.Candidates, len(doms))
			for _, mean := range doms {
				if mean <= 0 {
					continue
				}
				res.Candidates = append(res.Candidates, Candidate{
					Origin: OriginGMM,
					Period: mean,
					PValue: 1,
				})
			}
		}
	}

	for i := range res.Candidates {
		c := &res.Candidates[i]
		// The minimum-interval rule needs slack for the candidate's own
		// quantization: a periodogram period is only known to within the
		// bin spacing at its frequency, so a true period can land just
		// below min(I).
		hfSlack := sampleInterval
		if c.Origin == OriginPeriodogram && c.Bin > 0 {
			if binSpacing := c.Period * c.Period / (float64(len(series)) * sampleInterval); binSpacing > hfSlack {
				hfSlack = binSpacing
			}
		}
		if c.Period < minInterval-hfSlack {
			c.Reason = RejectHighFrequency
			continue
		}
		if c.Period*cfg.MinCycles > span {
			c.Reason = RejectTooFewCycles
			continue
		}
		// The candidate period is only known up to the DFT bin spacing at
		// its frequency (or the bin width for GMM candidates), and the
		// interval sample the test runs on is contaminated by noise events
		// near the cluster boundary; fold both uncertainties into the test
		// so quantization or mild contamination alone cannot reject a true
		// period. Far-off candidates (harmonics, leakage) remain well
		// outside the slack and are still rejected.
		tol := math.Max(sampleInterval/2, cfg.TTestSlack*c.Period)
		if c.Origin == OriginPeriodogram && c.Bin > 0 {
			if binSpacing := c.Period * c.Period / (2 * float64(len(series)) * sampleInterval); binSpacing > tol {
				tol = binSpacing
			}
		}
		if p, ok := d.intervalPValue(sc, nonzero, c.Period, tol); ok {
			c.PValue = p
			if p < cfg.Alpha {
				c.Reason = RejectTTest
				continue
			}
		}
	}

	// ---- Step 3: ACF verification ---------------------------------------
	// Verification runs at a candidate-adapted granularity: the series is
	// rebinned so that one bin is roughly a fifteenth of the candidate
	// period. At the native resolution, real-world jitter smears the ACF
	// peak across many lags and dilutes it below any sensible threshold;
	// rebinning concentrates the peak while preserving the periodic
	// structure (this mirrors the paper's multi-scale rescaling phase).
	// Both bases are rebinned from their nonzero bins, each extracted once.
	loaded := [2]bool{}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.Reason != RejectNone {
			continue
		}
		// Periods too short for the decimated series verify against the
		// original fine-grained series instead.
		b, basisSeries, basisInterval := 0, series, sampleInterval
		if c.Period < 4*sampleInterval && origInterval < sampleInterval {
			b, basisSeries, basisInterval = 1, origSeries, origInterval
		}
		basis := &sc.basis[b]
		if !loaded[b] {
			basis.load(basisSeries)
			loaded[b] = true
		}
		factor := rebinFactor(c.Period, basisInterval, basis.n)
		// Adapt the verification bin width to the observed timing jitter:
		// the ACF peak of a jittered beacon is smeared over ~sigma seconds,
		// so bins narrower than sigma dilute it below any usable threshold.
		// The width is capped at a quarter period to keep the lag axis
		// meaningful.
		if sigma := intervalSpread(sc, nonzero, c.Period); sigma > 0 {
			want := int(math.Round(sigma / basisInterval))
			if capF := int(c.Period / (4 * basisInterval)); want > capF {
				want = capF
			}
			if want > factor {
				factor = want
			}
		}
		rebinned := basis.rebin(&sc.rebinned, factor)
		binWidth := basisInterval * float64(factor)
		lag := c.Period / binWidth
		margin := int(math.Max(2, 0.15*lag))
		lo, hi := int(lag)-margin, int(lag)+margin
		if maxLag := rebinned.n / 2; hi > maxLag {
			hi = maxLag
		}
		// The hill test reads lags up to hi, and the trough test up to
		// twice the peak lag plus its window (hasTroughAfterPeak), so the
		// ACF is evaluated at those lags only.
		sc.acf = dsp.LagACFInto(sc.acf, rebinned.idx, rebinned.val, rebinned.n, 2*hi+max(1, hi/6))
		acf := sc.acf
		hill := dsp.ValidateHill(acf, lo, hi)
		c.ACFScore = hill.PeakValue
		// The acceptance threshold adapts to the ACF noise floor: for a
		// rebinned series of B buckets, white-noise autocorrelations are
		// ~N(0, 1/B), so anything below ~4/sqrt(B) is indistinguishable
		// from noise no matter what the configured minimum is.
		minScore := cfg.MinACFScore
		if floor := 4 / math.Sqrt(float64(rebinned.n)); floor > minScore {
			minScore = floor
		}
		if !hill.OnHill || hill.PeakValue < minScore {
			if hill.OnHill {
				c.Reason = RejectLowACF
			} else {
				c.Reason = RejectNotOnHill
			}
			// Renewal fallback for interval-derived candidates: sleep-loop
			// malware accumulates its timing jitter, so the phase drifts
			// and no ACF comb survives — yet the inter-request intervals
			// still concentrate tightly around the true period. Accept
			// such candidates on interval concentration alone; aperiodic
			// traffic (Poisson, browsing bursts) does not concentrate.
			// The fallback only applies to periods comfortably above the
			// sampling quantum: for tiny periods the +/-30% windows cover
			// unequal numbers of representable interval values and the
			// sideband comparison loses meaning.
			if c.Origin == OriginGMM && c.Period >= 8*origInterval {
				explained, n, mean, peakZ := renewalStats(nonzero, c.Period)
				if n >= cfg.MinRenewalSupport && explained >= cfg.RenewalFraction && peakZ >= 3 {
					c.Reason = RejectNone
					c.Renewal = true
					c.RefinedPeriod = mean
					// A concentration-based acceptance is weaker evidence
					// than a verified ACF comb; expose that through a
					// discounted score so ranking prefers comb-verified
					// periods.
					c.ACFScore = 0.5 * explained
					continue
				}
			}
			continue
		}
		// Periodicity implies an ACF trough between repetitions: the ACF
		// near 1.5x the period must drop well below the peak. Bursty but
		// aperiodic traffic (browsing sessions) produces short-lag
		// correlation that decays smoothly and fails this check.
		if !hasTroughAfterPeak(acf, hill.PeakLag, hill.PeakValue) {
			c.Reason = RejectNotOnHill
			continue
		}
		if factor == 1 {
			c.RefinedPeriod = float64(hill.PeakLag) * binWidth
		} else {
			// Coarse lags cannot refine below the rebinned resolution;
			// keep the candidate period unless the peak clearly moved.
			refined := float64(hill.PeakLag) * binWidth
			if math.Abs(refined-c.Period) > binWidth {
				c.RefinedPeriod = refined
			} else {
				c.RefinedPeriod = c.Period
			}
		}
	}

	// Deduplicate near-identical survivors, keeping the strongest.
	d.dedupe(res.Candidates)

	for _, c := range res.Candidates {
		if c.Reason == RejectNone {
			res.Kept = append(res.Kept, c)
		}
	}
	slices.SortStableFunc(res.Kept, func(a, b Candidate) int {
		if a.ACFScore != b.ACFScore { //bw:floatcmp sort comparator needs exact compare for a total order
			if a.ACFScore > b.ACFScore {
				return -1
			}
			return 1
		}
		if a.Power != b.Power { //bw:floatcmp sort comparator needs exact compare for a total order
			if a.Power > b.Power {
				return -1
			}
			return 1
		}
		return 0
	})
	res.Periodic = len(res.Kept) > 0
	return res, nil
}

// permutationThreshold estimates the spectral power that pure noise with
// the same first-order statistics can produce: the Confidence-quantile of
// the maximum periodogram power across Permutations random shuffles.
//
// The threshold is a pure function of the configured seed and the series'
// value MULTISET, not of its arrangement: the shuffle buffer is sorted into
// a canonical order before the permutation walk begins, and the rng seed is
// derived from a hash of that sorted buffer. A uniform shuffle of any
// arrangement of the same values is the same distribution, so this changes
// nothing statistically — but it makes the threshold shareable: every
// series with the same values draws the identical null distribution, which
// is what lets DetectBatch memoize one threshold per (seed, length, event
// count, multiset) bucket while staying bit-identical to per-pair Detect.
//
// The set-up is O(nonzeros) (canonicalize), and the mean every shuffle
// is centred by is summed once: the multiset is fixed, and counts sum
// exactly in any order. Each of the m shuffles is packed straight into
// the batch transform's interleaved tile, and each spectrum is reduced to
// its non-DC maximum without being stored (dsp.MaxPowersInto). The
// shuffle buffer, rng and maxima list live on sc, so the dominant cost of
// the detector per Vlachos et al. runs without heap allocations (memo
// misses insert one map entry; Detect passes memo=nil and stays
// allocation-free).
func (d *Detector) permutationThreshold(sc *detectScratch, series []float64, memo *ThresholdMemo) float64 {
	cfg := d.cfg
	n := len(series)
	hash, events, mean := sc.canonicalize(series)
	var key ThresholdKey
	if memo != nil {
		key = ThresholdKey{Seed: cfg.Seed, SeriesLen: n, Events: events, Hash: hash}
		if t, ok := memo.lookup(key); ok {
			return t
		}
	}
	// Reseeding the pooled rng reproduces rand.New(rand.NewSource(seed))
	// exactly: both paths reset the same generator state.
	sc.rng.Seed(cfg.Seed ^ int64(hash))
	maxima, err := sc.dsp.MaxPowersInto(sc.maxima[:0], n, cfg.Permutations, mean, func() []float64 {
		shuffleInto(sc.rng, sc.shuffled)
		return sc.shuffled
	})
	sc.maxima = maxima
	if err != nil || len(maxima) == 0 {
		return math.Inf(1)
	}
	slices.Sort(maxima)
	idx := int(math.Ceil(cfg.Confidence*float64(len(maxima)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(maxima) {
		idx = len(maxima) - 1
	}
	t := maxima[idx]
	if memo != nil {
		memo.store(key, t)
	}
	return t
}

// canonicalize loads series' values into sc.shuffled in their sorted
// order — the shuffles' canonical start — and returns the buffer's FNV-1a
// hash, the event count countEvents reports, and the values' mean, all
// in O(nonzeros) beyond one pass over series: only the nonzero values are
// sorted, and the zeros (-0 included, written back as +0) are slotted in
// where a full sort puts them, their run hashed in O(log n) by zerosFNV.
func (sc *detectScratch) canonicalize(series []float64) (hash uint64, events int, mean float64) {
	n := len(series)
	buf := slices.Grow(sc.shuffled[:0], n)[:n]
	sc.shuffled = buf
	k := 0 // nonzero values, gathered at the front
	var total float64
	for _, v := range series {
		if v != 0 {
			buf[k] = v
			k++
			total += v
		}
	}
	nonzero := buf[:k]
	slices.Sort(nonzero)
	neg := 0 // nonzeros a full sort puts before the zeros
	for neg < k && !(nonzero[neg] > 0) {
		neg++
	}
	pos := buf[n-(k-neg):]
	copy(pos, nonzero[neg:])
	clear(buf[neg : n-len(pos)])
	hash = fnvFloats(zerosFNV(fnvFloats(fnvOffset, buf[:neg]), n-k), pos)
	return hash, int(total), total / float64(n)
}

// shuffleInto permutes xs in place exactly as r.Shuffle(len(xs), swap)
// would: the same Fisher–Yates walk from the top index down, drawing each
// index through Uint32 with the same Lemire multiply-and-reject (Int63n
// above 2³¹), so it makes the same draws in the same order and leaves r
// in the same state — without a call through a swap closure per element.
func shuffleInto(r *rand.Rand, xs []float64) {
	i := len(xs) - 1
	for ; i > 1<<31-1-1; i-- {
		j := int(r.Int63n(int64(i + 1)))
		xs[i], xs[j] = xs[j], xs[i]
	}
	for ; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(r.Uint32()) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(r.Uint32()) * uint64(n)
				low = uint32(prod)
			}
		}
		j := int(prod >> 32)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// intervalPValue runs the one-sample t-test of candidate period P against
// the observed intervals near P (within +/-30%): the null hypothesis is
// that intervals recurring around P are draws from N(P, sigma^2). Testing
// the neighborhood rather than the full list keeps the test meaningful for
// multi-modal interval distributions (missing events double intervals,
// added events split them). tol is the measurement uncertainty of P itself
// (bin quantization / spectral resolution / boundary contamination), added
// to the standard error so that discretization alone cannot reject a true
// period. The boolean is false when the neighborhood has too little
// support to test — high added-event noise legitimately destroys
// consecutive intervals while the spectral periodicity survives, so lack
// of support defers the decision to the ACF verification step.
func (d *Detector) intervalPValue(sc *detectScratch, nonzero []float64, period, tol float64) (float64, bool) {
	sample := sc.sample[:0]
	for _, iv := range nonzero {
		if iv >= 0.7*period && iv <= 1.3*period {
			sample = append(sample, iv)
		}
	}
	sc.sample = sample
	n := len(sample)
	if n < 4 {
		return 0, false
	}
	mean, sd := stats.MeanStdDev(sample)
	se := math.Sqrt(sd*sd/float64(n) + tol*tol)
	if se == 0 {
		// Degenerate zero-variance sample: a tolerance keeps float noise
		// in the mean from turning "exactly on period" into a hard miss.
		if fmath.Near(mean, period) {
			return 1, true
		}
		return 0, true
	}
	t := (mean - period) / se
	cdf, err := stats.StudentTCDF(-math.Abs(t), float64(n-1))
	if err != nil {
		return 0, false
	}
	p := 2 * cdf
	if p > 1 {
		p = 1
	}
	return p, true
}

// hasTroughAfterPeak reports whether the ACF behaves like a periodic comb
// around the candidate: it must dip substantially below the peak around
// 1.5x the peak lag (between repetitions the autocorrelation collapses
// toward the noise floor) and rise again around 2x the peak lag (the next
// comb tooth). Smoothly decaying burst correlation fails one of the two:
// either it never dips (slow decay) or it never resurges (fast decay).
// Regions beyond the reliable lag range pass by default.
func hasTroughAfterPeak(acf []float64, peakLag int, peakValue float64) bool {
	w := peakLag / 6
	if w < 1 {
		w = 1
	}
	windowMin := func(center int) (float64, bool) {
		lo, hi := center-w, center+w
		if lo <= peakLag {
			lo = peakLag + 1
		}
		if hi >= len(acf) {
			hi = len(acf) - 1
		}
		if lo > hi {
			return 0, false
		}
		m := acf[lo]
		for l := lo + 1; l <= hi; l++ {
			if acf[l] < m {
				m = acf[l]
			}
		}
		return m, true
	}
	windowMax := func(center int) (float64, bool) {
		lo, hi := center-w, center+w
		if lo <= peakLag {
			lo = peakLag + 1
		}
		if hi >= len(acf) {
			hi = len(acf) - 1
		}
		if lo > hi {
			return 0, false
		}
		m := acf[lo]
		for l := lo + 1; l <= hi; l++ {
			if acf[l] > m {
				m = acf[l]
			}
		}
		return m, true
	}

	trough, ok := windowMin(peakLag + peakLag/2)
	if !ok {
		return true
	}
	if trough > 0.5*peakValue {
		return false
	}
	resurgence, ok := windowMax(2 * peakLag)
	if !ok {
		return true
	}
	return resurgence >= trough+0.2*(peakValue-trough)
}

// renewalStats measures how well a renewal process with period P explains
// the interval list:
//
//   - explained is the fraction of nonzero intervals within +/-30% of P,
//     2P or 3P (missed beacons double or triple observed intervals);
//   - support and mean describe the intervals in the +/-30% fundamental
//     window (mean is the refined period estimate);
//   - peakZ compares the fundamental window's mass against the equally
//     wide sidebands around it ([0.4P, 0.7P) and (1.3P, 1.6P]) as a
//     binomial z-score. A true renewal beacon concentrates in the peak
//     (z >> 0); an exponential (Poisson) interval distribution is locally
//     flat (z ~ 0), which is what keeps this fallback from flagging
//     random traffic.
func renewalStats(nonzero []float64, period float64) (explained float64, support int, mean float64, peakZ float64) {
	if len(nonzero) == 0 || period <= 0 {
		return 0, 0, 0, 0
	}
	var sum float64
	sideband := 0
	explainedCount := 0
	for _, iv := range nonzero {
		switch {
		case iv >= 0.7*period && iv <= 1.3*period:
			support++
			sum += iv
			explainedCount++
		case iv >= 1.4*period && iv <= 2.6*period,
			iv >= 2.1*period && iv <= 3.9*period:
			explainedCount++
		}
		if (iv >= 0.4*period && iv < 0.7*period) || (iv > 1.3*period && iv <= 1.6*period) {
			sideband++
		}
	}
	if support == 0 {
		return 0, 0, 0, 0
	}
	explained = float64(explainedCount) / float64(len(nonzero))
	mean = sum / float64(support)
	// Binomial significance of the peak: under a locally flat interval
	// density (Poisson-like traffic), an interval that lands in
	// peak-or-sideband is equally likely to land in either (both windows
	// are 0.6*P wide; a decreasing density actually favors the lower
	// sideband, making this conservative). peakZ is the one-sided z-score
	// of the observed peak share.
	n := float64(support + sideband)
	peakZ = (float64(support) - 0.5*n) / math.Sqrt(0.25*n)
	return explained, support, mean, peakZ
}

// intervalSpread estimates the timing jitter around a candidate period:
// the standard deviation of the nonzero intervals within +/-50% of it.
// It returns 0 when fewer than four intervals support the estimate.
func intervalSpread(sc *detectScratch, nonzero []float64, period float64) float64 {
	near := sc.near[:0]
	for _, iv := range nonzero {
		if iv >= 0.5*period && iv <= 1.5*period {
			near = append(near, iv)
		}
	}
	sc.near = near
	if len(near) < 4 {
		return 0
	}
	return stats.StdDev(near)
}

// rebinFactor picks the integer rebinning factor for ACF verification of a
// candidate period: roughly period/15 per bin, clamped so the rebinned
// series keeps at least 32 bins.
func rebinFactor(period, sampleInterval float64, n int) int {
	f := int(math.Round(period / (15 * sampleInterval)))
	if f < 1 {
		f = 1
	}
	if maxF := n / 32; f > maxF {
		f = maxF
	}
	if f < 1 {
		f = 1
	}
	return f
}

// dedupe marks as duplicates any surviving candidate within 10% of a
// stronger surviving candidate (iteration order follows spectral strength,
// which Candidates already reflects for periodogram entries), and any
// surviving candidate that is an integer multiple of a smaller surviving
// period: missing events double or triple observed intervals, producing
// subharmonic candidates of the true (fundamental) period.
func (d *Detector) dedupe(cands []Candidate) {
	for i := range cands {
		if cands[i].Reason != RejectNone {
			continue
		}
		for j := range cands[:i] {
			if cands[j].Reason != RejectNone {
				continue
			}
			pi, pj := cands[i].BestPeriod(), cands[j].BestPeriod()
			if pj == 0 {
				continue
			}
			if math.Abs(pi-pj) <= 0.1*math.Max(pi, pj) {
				cands[i].Reason = RejectDuplicate
				break
			}
		}
	}
	// Subharmonic suppression across all survivors.
	for i := range cands {
		if cands[i].Reason != RejectNone {
			continue
		}
		pi := cands[i].BestPeriod()
		for j := range cands {
			if i == j || cands[j].Reason != RejectNone {
				continue
			}
			pj := cands[j].BestPeriod()
			if pj <= 0 || pi <= pj {
				continue
			}
			ratio := pi / pj
			m := math.Round(ratio)
			if m >= 2 && m <= 6 && math.Abs(ratio-m) <= 0.05*m {
				cands[i].Reason = RejectDuplicate
				break
			}
		}
	}
}

func countEvents(series []float64) int {
	var n float64
	for _, v := range series {
		n += v
	}
	return int(n)
}

// FNV-1a (64-bit) over the little-endian bytes of float64 values: the
// permutation null's seed component, a fingerprint of the canonical
// shuffle buffer.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)

// fnvFloats continues FNV-1a state h over the bytes of vs.
func fnvFloats(h uint64, vs []float64) uint64 {
	for _, v := range vs {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// zerosFNV continues FNV-1a state h over z zero values: each zero byte
// leaves the xor a no-op, so the run multiplies h by fnvPrime^(8z)
// (mod 2⁶⁴), taken by squaring.
func zerosFNV(h uint64, z int) uint64 {
	for p, e := fnvPrime, uint(8*z); e > 0; p, e = p*p, e>>1 {
		if e&1 == 1 {
			h *= p
		}
	}
	return h
}
