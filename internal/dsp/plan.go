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

// fftPlan caches the size-dependent tables of the radix-2 transform: the
// bit-reversal permutation and the twiddle factors w[j] = exp(-2πi·j/n).
// Plans are immutable after construction and safe to share across
// goroutines.
type fftPlan struct {
	n   int
	rev []int32
	w   []complex128
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
		n:   n,
		rev: make([]int32, n),
		w:   make([]complex128, n/2),
	}
	shift := uint(64 - bits.Len(uint(n-1)))
	for i := range p.rev {
		p.rev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	for j := range p.w {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		p.w[j] = complex(c, s)
	}
	return p
}

// transform runs the in-place forward radix-2 FFT over the cached tables.
func (p *fftPlan) transform(x []complex128) {
	n := p.n
	for i, r := range p.rev {
		if int(r) > i {
			x[i], x[r] = x[r], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := p.w[ti]
				a := x[k]
				b := x[k+half] * w
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
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
// samples, as h packed complex samples into series j of the b-wide
// interleaved buffer z (len(z) = h*b): z[i*b+j] = (src[2i]-mean) +
// i·(src[2i+1]-mean). This is the classic "real FFT via half-length
// complex FFT" layout; unpackSpectrum recovers the true spectrum. b = 1,
// j = 0 is the plain single-series layout. The pads are written as exact
// zeros after centring, so they carry no mean offset.
func packReal(z []complex128, b, j int, src []float64, mean float64) {
	n := len(src)
	at := j
	for i := 1; i < n; i += 2 {
		z[at] = complex(src[i-1]-mean, src[i]-mean)
		at += b
	}
	if n%2 == 1 {
		z[at] = complex(src[n-1]-mean, 0)
		at += b
	}
	for ; at < len(z); at += b {
		z[at] = 0
	}
}

// unpackSpectrum recovers bin k of the length-2h spectrum of packed series
// j of a b-wide interleaved buffer z (its h packed samples at z[i*b+j],
// already transformed by FFT_h) from the length-2h twiddle table w
// (w[k] = exp(-2πik/2h), k < h). It returns X[k] and X[k+h].
func unpackSpectrum(z []complex128, h, b, j int, w []complex128, k int) (xk, xkh complex128) {
	zk := z[k*b+j]
	zc := z[((h-k)&(h-1))*b+j]
	zc = complex(real(zc), -imag(zc))
	e := (zk + zc) * complex(0.5, 0)
	o := (zk - zc) * complex(0, -0.5)
	wo := w[k] * o
	return e + wo, e - wo
}

// powerInto writes the one-sided periodogram of packed series j of the
// transformed b-wide buffer z into pg: bins 0..h of the 2h-point grid,
// normalised by the n real samples the series held before padding.
func powerInto(pg *Periodogram, z []complex128, h, b, j int, w []complex128, n int, sampleInterval float64) {
	if cap(pg.Power) < h+1 {
		pg.Power = make([]float64, h+1)
	}
	power := pg.Power[:h+1]
	inv := 1 / float64(n)
	for k := 0; k < h; k++ {
		xk, _ := unpackSpectrum(z, h, b, j, w, k)
		re, im := real(xk), imag(xk)
		power[k] = (re*re + im*im) * inv
	}
	// Nyquist bin: X[h] = E[0] - O[0].
	_, xh := unpackSpectrum(z, h, b, j, w, 0)
	re, im := real(xh), imag(xh)
	power[h] = (re*re + im*im) * inv
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
	h := NextPowerOfTwo(len(x)) / 2
	z := complexScratch(&s.cx, h)
	packReal(z, 1, 0, x, meanOf(x))
	s.planFor(h).transform(z)
	powerInto(pg, z, h, 1, 0, s.planFor(2*h).w, len(x), sampleInterval)
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
