package dsp

import "fmt"

// Batched spectral maxima: plan-at-a-time scheduling over many
// same-length series.
//
// The detector's permutation threshold transforms m shuffles of one
// series through the same plan back-to-back, and keeps one number from
// each spectrum: its largest non-DC power. Running those transforms as one
// batch amortizes the plan and twiddle-table lookups: the shuffles are
// packed into an interleaved tile (slot i of series j lives at x[i*b+j]),
// so every radix-4 butterfly's twiddle triple and every unpack twiddle is
// loaded once and applied to b adjacent complex values. The per-series
// floating-point operations and their order are exactly those of the
// single-series (b = 1) path, so batched results are bit-identical to
// running the series one at a time (the differential tests pin this).

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
// largest non-DC power of its periodogram. next is called m times, in
// order, and returns the next series (n samples); the kernel reads it
// before calling next again, so next may return the same buffer each time.
//
// Every series is centred by the one mean given: the permutation null's
// shuffles are arrangements of one multiset, so they share it. For a
// series whose meanOf is that mean, the maximum is the value
// Periodogram.MaxPower returns after PeriodogramInto over it, bit for bit.
//
// Tiles of the m series are zero-padded and packed into one interleaved
// buffer, transformed together, and each unpacked spectrum is reduced
// straight to its maximum: no per-series Periodogram is built. The maximum
// is taken over the unnormalised powers and scaled once; rounding is
// monotone, so that equals the maximum of the normalised powers
// PeriodogramInto stores.
func (s *Scratch) MaxPowersInto(dst []float64, n, m int, mean float64, next func() []float64) ([]float64, error) {
	if n < 4 {
		return dst, fmt.Errorf("%w: n=%d", ErrShortSeries, n)
	}
	p := s.planFor(NextPowerOfTwo(n) / 2)
	h := p.n
	tile := batchTile(h, m)
	z := complexScratch(&s.cx, h*tile)
	best := floatScratch(&s.best, tile)
	scale := 0.25 / float64(n)
	for lo := 0; lo < m; lo += tile {
		t := min(tile, m-lo)
		zt := z[:h*t]
		for j := 0; j < t; j++ {
			packReal(zt, t, j, next(), mean, p.rev)
		}
		p.transform(zt, t)
		for _, v := range maxPowers(best[:t], zt, p.unpack) {
			dst = append(dst, v*scale)
		}
	}
	return dst, nil
}

// maxPowers sets best[j] to the largest of pairPowers' unnormalised
// powers over bins 1..h of packed series j of the transformed
// len(best)-wide buffer z, and returns best. It walks the bin pairs
// (k, h-k) once over the whole tile, keeping a running maximum per series;
// like MaxPower it compares strictly greater, from zero.
func maxPowers(best []float64, z, unpack []complex128) []float64 {
	b := len(best)
	h := len(z) / b
	for j, v := range z[:b] {
		best[j] = 0
		if _, nyquist := pairPowers(v, v, 1); nyquist > 0 {
			best[j] = nyquist
		}
	}
	for k := 1; k <= h/2; k++ {
		w := unpack[k]
		zk := z[k*b : k*b+b]
		zc := z[(h-k)*b : (h-k)*b+b]
		zc, best := zc[:len(zk)], best[:len(zk)]
		for j, v := range zk {
			pk, pc := pairPowers(v, zc[j], w)
			if pk > best[j] {
				best[j] = pk
			}
			if pc > best[j] {
				best[j] = pc
			}
		}
	}
	return best
}
