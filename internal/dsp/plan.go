package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Transform plans and reusable scratch buffers.
//
// The detector runs the same FFT sizes millions of times per day (every
// permutation of the threshold test re-transforms a series of the same
// length), so the size-dependent work — twiddle factors and bit-reversal
// permutations — is computed once per power-of-two size and shared
// process-wide. Per-call buffers live in a Scratch, a per-worker
// workspace that makes the steady-state hot path allocation-free.
//
// Ownership contract: slices returned by Scratch methods (or written into
// caller-supplied destination buffers) are owned by the caller only until
// the next call on the same Scratch unless documented otherwise; the plain
// package-level entry points always return freshly allocated results.

// fftPlan caches the size-dependent tables of the transform: the
// bit-reversal permutation the packers load samples through, the radix-4
// passes' twiddle triples, and the real-FFT unpack's twiddles. Plans are
// immutable after construction and safe to share across goroutines.
type fftPlan struct {
	n   int
	rev []int32 // rev[s] is the bit reversal of s over log₂n bits
	// tw holds, pass after pass in execution order, the triples
	// (w^k, w^2k, w^3k), w = exp(-2πi/span), k < span/4, of every radix-4
	// pass of span 4q.
	tw []complex128
	// unpack[k] = exp(-2πi·k/2n), k = 0..n/2: the twiddles that split a
	// packed real series' transform into its length-2n spectrum.
	unpack []complex128
}

var (
	planMu    sync.RWMutex
	planCache = map[int]*fftPlan{}
)

// sharedPlanFor returns the process-wide plan for power-of-two size n,
// building and caching it on first use.
func sharedPlanFor(n int) *fftPlan {
	planMu.RLock()
	p := planCache[n]
	planMu.RUnlock()
	if p != nil {
		return p
	}
	planMu.Lock()
	defer planMu.Unlock()
	if p = planCache[n]; p != nil {
		return p
	}
	p = newFFTPlan(n)
	planCache[n] = p
	return p
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{
		n:      n,
		rev:    make([]int32, n),
		unpack: make([]complex128, n/2+1),
	}
	shift := uint(64 - bits.Len(uint(n-1)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for q := firstQuarter(n); 4*q <= n; q *= 4 {
		for k := 0; k < q; k++ {
			for r := 1; r <= 3; r++ {
				p.tw = append(p.tw, cis(-2*math.Pi*float64(r*k)/float64(4*q)))
			}
		}
	}
	for k := range p.unpack {
		p.unpack[k] = cis(-math.Pi * float64(k) / float64(n))
	}
	if n >= 2 {
		// Exactly -i, so bin n/2, its own mirror, comes out the same from
		// either half of pairPowers.
		p.unpack[n/2] = complex(0, -1)
	}
	return p
}

// cis is exp(iθ).
func cis(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// firstQuarter is the block size the first radix-4 pass of an n-point
// transform combines: 1 when log₂n is even, 2 when it is odd (a plain
// radix-2 pass over adjacent pairs runs first).
func firstQuarter(n int) int {
	return 1 + bits.TrailingZeros(uint(n))%2
}

// transform runs the in-place forward FFT over b interleaved series of
// plan length n: x[i*b+j] is slot i of series j, len(x) = n*b, and b = 1
// is the single-series layout. The input must already sit in bit-reversed
// order (slot i holds sample rev[i]: the packers load it that way), so
// the output is in natural order and no swap pass runs.
//
// The kernel is decimation in time, two radix-2 stages fused per pass:
// a pass of span 4q combines four q-point transforms (in bit-reversed
// order the quarters hold the samples ≡ 0, 2, 1, 3 mod 4) with three
// complex multiplies per four points instead of four, and none at k = 0,
// where the twiddles are all ones. Each twiddle triple is loaded once and
// applied across the b series of a slot, so a tile of series shares every
// table load. When log₂n is odd one twiddle-free radix-2 pass over
// adjacent pairs runs first.
func (p *fftPlan) transform(x []complex128, b int) {
	n := p.n
	if firstQuarter(n) == 2 {
		for i := 0; i < n*b; i += 2 * b {
			x0 := x[i : i+b]
			x1 := x[i+b : i+2*b]
			x1 = x1[:len(x0)]
			for j, a := range x0 {
				c := x1[j]
				x0[j], x1[j] = a+c, a-c
			}
		}
	}
	tw := p.tw
	for q := firstQuarter(n); 4*q <= n; q *= 4 {
		qb := q * b
		pass := tw[:3*q]
		tw = tw[3*q:]
		for start := 0; start < n*b; start += 4 * qb {
			// k = 0: unit twiddles.
			x0 := x[start : start+b]
			x1 := x[start+qb : start+qb+b]
			x2 := x[start+2*qb : start+2*qb+b]
			x3 := x[start+3*qb : start+3*qb+b]
			x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
			for j, a := range x0 {
				c, d, e := x1[j], x2[j], x3[j]
				t0, t1 := a+c, a-c
				t2, t3 := d+e, d-e
				t3 = complex(imag(t3), -real(t3)) // -i·t3
				x0[j], x1[j], x2[j], x3[j] = t0+t2, t1+t3, t0-t2, t1-t3
			}
			for k := 1; k < q; k++ {
				w1, w2, w3 := pass[3*k], pass[3*k+1], pass[3*k+2]
				i0 := start + k*b
				x0 := x[i0 : i0+b]
				x1 := x[i0+qb : i0+qb+b]
				x2 := x[i0+2*qb : i0+2*qb+b]
				x3 := x[i0+3*qb : i0+3*qb+b]
				x1, x2, x3 = x1[:len(x0)], x2[:len(x0)], x3[:len(x0)]
				for j, a := range x0 {
					c, d, e := x1[j]*w2, x2[j]*w1, x3[j]*w3
					t0, t1 := a+c, a-c
					t2, t3 := d+e, d-e
					t3 = complex(imag(t3), -real(t3)) // -i·t3
					x0[j], x1[j], x2[j], x3[j] = t0+t2, t1+t3, t0-t2, t1-t3
				}
			}
		}
	}
}

// Scratch is a reusable per-worker workspace for the spectral hot paths.
// It memoizes transform plans locally (skipping the shared cache's lock on
// repeat sizes) and recycles the complex work buffers, so steady-state
// calls on repeated sizes allocate nothing. A Scratch is NOT safe for
// concurrent use; give each worker its own (they are cheap when idle).
type Scratch struct {
	plans map[int]*fftPlan
	cx    []complex128 // transform buffer: one packed series, or a tile of them
	best  []float64    // per-series running maxima of a tile
}

// NewScratch returns an empty workspace. Buffers and plan memos grow on
// first use and are reused afterward.
func NewScratch() *Scratch {
	return &Scratch{plans: make(map[int]*fftPlan)}
}

func (s *Scratch) planFor(n int) *fftPlan {
	if p := s.plans[n]; p != nil {
		return p
	}
	p := sharedPlanFor(n)
	s.plans[n] = p
	return p
}

// complexScratch resizes *buf to n entries, reusing its capacity. The
// contents are unspecified; callers overwrite or clear as needed.
func complexScratch(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// floatScratch is complexScratch for float64 buffers.
func floatScratch(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// meanOf is the arithmetic mean of x, summed in index order (every
// spectral path centres its input with exactly this value).
func meanOf(x []float64) float64 {
	var m float64
	for _, v := range x {
		m += v
	}
	return m / float64(len(x))
}

// packReal loads the mean-centred real series src, zero-padded to 2h
// samples (h = len(rev)), as h packed complex samples into series j of the
// b-wide interleaved buffer z (len(z) = h*b), in the bit-reversed order
// transform takes: slot s holds the natural pair r = rev[s],
// z[s*b+j] = (src[2r]-mean) + i·(src[2r+1]-mean). This is the classic
// "real FFT via half-length complex FFT" layout; pairPowers recovers the
// true spectrum. b = 1, j = 0 is the plain single-series layout. The pads
// are written as exact zeros, so they carry no mean offset.
func packReal(z []complex128, b, j int, src []float64, mean float64, rev []int32) {
	at := j
	for _, r := range rev {
		var v complex128
		switch i := 2 * int(r); {
		case i+1 < len(src):
			v = complex(src[i]-mean, src[i+1]-mean)
		case i < len(src):
			v = complex(src[i]-mean, 0)
		}
		z[at] = v
		at += b
	}
}

// pairPowers recovers two bins of the length-2h spectrum X of a packed
// real series from its transform Z: zk = Z[k], zc = Z[h-k] (Z[0] for
// k = 0) and w = exp(-2πik/2h). With E and O the transforms of the even
// and odd samples, 2E[k] = zk + conj(zc), 2O[k] = -i·(zk - conj(zc)),
// X[k] = E[k] + w·O[k] and X[h-k] = conj(E[k] - w·O[k]), so one twiddle
// multiply yields both. It returns 4|X[k]|² and 4|X[h-k]|² (the halving
// is left out: scaling by 4 is exact, and callers fold ¼ into their
// normalisation). At k = 0, w = 1, the pair is (DC, Nyquist).
func pairPowers(zk, zc, w complex128) (pk, pc float64) {
	e := complex(real(zk)+real(zc), imag(zk)-imag(zc))
	wo := w * complex(imag(zk)+imag(zc), real(zc)-real(zk))
	a, c := e+wo, e-wo
	return real(a)*real(a) + imag(a)*imag(a), real(c)*real(c) + imag(c)*imag(c)
}

// powerInto writes the one-sided periodogram of the transformed packed
// series z (h = len(z) slots) into pg: bins 0..h of the 2h-point grid,
// normalised by the n real samples the series held before padding.
func powerInto(pg *Periodogram, z, unpack []complex128, n int, sampleInterval float64) {
	h := len(z)
	if cap(pg.Power) < h+1 {
		pg.Power = make([]float64, h+1)
	}
	power := pg.Power[:h+1]
	scale := 0.25 / float64(n)
	p0, ph := pairPowers(z[0], z[0], 1)
	power[0], power[h] = p0*scale, ph*scale
	for k := 1; k <= h/2; k++ {
		pk, pc := pairPowers(z[k], z[h-k], unpack[k])
		power[k], power[h-k] = pk*scale, pc*scale
	}
	pg.Power = power
	pg.N = 2 * h
	pg.SampleInterval = sampleInterval
}

// checkSpectrumInput validates a periodogram request of n samples.
func checkSpectrumInput(n int, sampleInterval float64) error {
	if n < 4 {
		return fmt.Errorf("%w: n=%d", ErrShortSeries, n)
	}
	if sampleInterval <= 0 {
		return fmt.Errorf("dsp: sample interval must be positive, got %v", sampleInterval)
	}
	return nil
}

// PeriodogramInto estimates the power spectrum of x into pg, reusing
// pg.Power's backing array. It is the allocation-free equivalent of
// ComputePeriodogram; see that function for the estimator's definition.
// The mean-centred series is zero-padded to the next power of two and
// runs one packed real FFT at half that length. pg.Power is owned by the
// caller and shares no storage with the Scratch.
//
//bw:noalloc steady-state spectrum path; covered by TestPeriodogramIntoAllocs
func (s *Scratch) PeriodogramInto(pg *Periodogram, x []float64, sampleInterval float64) error {
	if err := checkSpectrumInput(len(x), sampleInterval); err != nil {
		return err
	}
	p := s.planFor(NextPowerOfTwo(len(x)) / 2)
	z := complexScratch(&s.cx, p.n)
	packReal(z, 1, 0, x, meanOf(x), p.rev)
	p.transform(z, 1)
	powerInto(pg, z, p.unpack, len(x), sampleInterval)
	return nil
}

// sharedScratch lends Scratch workspaces to the plain package-level entry
// point ComputePeriodogram so one-shot callers still hit the cached plans
// and reuse transform buffers.
var sharedScratch = sync.Pool{New: func() any { return NewScratch() }}

// borrowScratch hands the pooled workspace to its caller, who must
// release it with releaseScratch (the entry points defer it).
//
//bw:pool-handoff caller releases via releaseScratch
func borrowScratch() *Scratch   { return sharedScratch.Get().(*Scratch) }
func releaseScratch(s *Scratch) { sharedScratch.Put(s) }
