package dsp

import "fmt"

// Batched spectral transforms: plan-at-a-time scheduling over many
// same-length series.
//
// The detector's permutation threshold transforms m shuffles of one
// series through the same plan back-to-back, and keeps one number from
// each spectrum: its largest non-DC power. Running those transforms as one
// batch amortizes the plan and twiddle-table lookups and executes the
// radix-2 butterflies across the whole batch (every series padded to one
// power-of-two length) in an interleaved layout:
// sample i of series j lives at x[i*b+j], so one butterfly's twiddle
// factor is loaded once and applied to b adjacent complex values. The
// per-series floating-point operations and their order are exactly those
// of the single-series transform, so batched results are bit-identical
// to running the series one at a time (the differential tests pin this).

// batchTransform runs the in-place radix-2 FFT over b interleaved series
// of plan length n: x[i*b+j] is sample i of series j, len(x) = n*b. The
// butterfly schedule per series is identical to transform, so each
// series' output is bit-identical to transforming it alone.
func (p *fftPlan) batchTransform(x []complex128, b int) {
	n := p.n
	for i, r := range p.rev {
		if int(r) > i {
			ri := int(r) * b
			ii := i * b
			for j := 0; j < b; j++ {
				x[ii+j], x[ri+j] = x[ri+j], x[ii+j]
			}
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := p.w[ti]
				ka, kb := k*b, (k+half)*b
				for j := 0; j < b; j++ {
					a := x[ka+j]
					bj := x[kb+j] * w
					x[ka+j] = a + bj
					x[kb+j] = a - bj
				}
				ti += stride
			}
		}
	}
}

// batchTile bounds how many series one interleaved tile holds: the tile
// buffer (h complex samples per series) is kept around half a megabyte so
// it stays cache-resident, with at least one series per tile.
func batchTile(h, b int) int {
	t := (32 << 10) / h
	if t < 1 {
		t = 1
	}
	if t > b {
		t = b
	}
	return t
}

// MaxPowersInto appends to dst, for each of m series of n samples, the
// largest non-DC power of its periodogram: the value Periodogram.MaxPower
// returns after PeriodogramInto over that series, bit for bit. next is
// called m times, in order, and returns the next series (n samples); the
// kernel reads it before calling next again, so next may return the same
// buffer each time.
//
// Tiles of the m series are centred, zero-padded and packed into one
// interleaved buffer, transformed together, and each unpacked spectrum is
// reduced straight to its maximum: no per-series Periodogram is built.
// The maximum is taken over the unnormalised |X_k|² and divided by n once;
// rounding is monotone, so that equals the maximum of the normalised
// powers PeriodogramInto stores.
func (s *Scratch) MaxPowersInto(dst []float64, n, m int, next func() []float64) ([]float64, error) {
	if n < 4 {
		return dst, fmt.Errorf("%w: n=%d", ErrShortSeries, n)
	}
	h := NextPowerOfTwo(n) / 2
	w := s.planFor(2 * h).w
	hp := s.planFor(h)
	tile := batchTile(h, m)
	z := complexScratch(&s.cx, h*tile)
	inv := 1 / float64(n)
	for lo := 0; lo < m; lo += tile {
		t := min(tile, m-lo)
		zt := z[:h*t]
		for j := 0; j < t; j++ {
			x := next()
			packReal(zt, t, j, x, meanOf(x))
		}
		hp.batchTransform(zt, t)
		for j := 0; j < t; j++ {
			dst = append(dst, maxPower(zt, h, t, j, w)*inv)
		}
	}
	return dst, nil
}

// maxPower is the largest |X_k|², k = 1..h, of packed series j of the
// transformed b-wide buffer z, each term computed exactly as powerInto
// computes it and compared in MaxPower's order (strictly greater, from
// zero).
func maxPower(z []complex128, h, b, j int, w []complex128) float64 {
	var best float64
	for k := 1; k < h; k++ {
		xk, _ := unpackSpectrum(z, h, b, j, w, k)
		re, im := real(xk), imag(xk)
		if p := re*re + im*im; p > best {
			best = p
		}
	}
	_, xh := unpackSpectrum(z, h, b, j, w, 0)
	re, im := real(xh), imag(xh)
	if p := re*re + im*im; p > best {
		best = p
	}
	return best
}
