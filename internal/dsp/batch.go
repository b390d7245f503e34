package dsp

import (
	"fmt"
)

// Batched spectral transforms: plan-at-a-time scheduling over many
// same-length series.
//
// The detector's permutation threshold transforms m shuffles of one
// series, and batch detection transforms thousands of series bucketed
// into a handful of lengths — in both cases the same plan is applied
// back-to-back. Running those transforms as one batch amortizes the plan
// and twiddle-table lookups and executes the radix-2 butterflies across
// the whole batch (every series padded to one power-of-two length) in an
// interleaved layout:
// sample i of series j lives at x[i*b+j], so one butterfly's twiddle
// factor is loaded once and applied to b adjacent complex values. The
// per-series floating-point operations and their order are exactly those
// of the single-series transform, so batched results are bit-identical
// to running the series one at a time (the differential tests pin this).

// batchTransform runs the in-place radix-2 FFT over b interleaved series
// of plan length n: x[i*b+j] is sample i of series j, len(x) = n*b. The
// butterfly schedule per series is identical to transform, so each
// series' output is bit-identical to transforming it alone.
func (p *fftPlan) batchTransform(x []complex128, b int, inverse bool) {
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
	tw := p.w
	if inverse {
		tw = p.wInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
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

// SetInterleave selects the batch layout of PeriodogramRowsInto: enabled
// (the default) runs batches through the interleaved tile transform;
// disabled processes rows one at a time through the packed single-series
// path. Both layouts produce bit-identical results — the toggle exists for
// measurement and for the differential tests.
func (s *Scratch) SetInterleave(enabled bool) {
	s.noInterleave = !enabled
}

// PeriodogramRowsInto estimates the power spectra of b same-length series
// stored row-major in rows (series j occupies rows[j*n:(j+1)*n]), writing
// spectrum j into pgs[j] exactly as PeriodogramInto would. b is len(pgs)
// and len(rows) must be b*n. Every row is centred and zero-padded to the
// next power of two as PeriodogramInto does, and tiles of the batch run
// through one interleaved packed-real transform per tile (one plan
// lookup, shared twiddle loads). Each pgs[j].Power is owned by the caller
// and shares no storage with the Scratch.
//
//bw:noalloc steady-state batch spectrum path; covered by TestPeriodogramRowsIntoAllocs
func (s *Scratch) PeriodogramRowsInto(pgs []Periodogram, rows []float64, n int, sampleInterval float64) error {
	if err := checkSpectrumInput(n, sampleInterval); err != nil {
		return err
	}
	b := len(pgs)
	if len(rows) != b*n {
		return fmt.Errorf("dsp: batch shape mismatch: %d samples for %d series of length %d", len(rows), b, n)
	}
	if b < 2 || s.noInterleave {
		for j := 0; j < b; j++ {
			if err := s.PeriodogramInto(&pgs[j], rows[j*n:(j+1)*n], sampleInterval); err != nil {
				return err
			}
		}
		return nil
	}

	h := NextPowerOfTwo(n) / 2
	w := s.planFor(2 * h).w
	hp := s.planFor(h)
	tile := batchTile(h, b)
	z := complexScratch(&s.ix, h*tile)
	for lo := 0; lo < b; lo += tile {
		t := tile
		if lo+t > b {
			t = b - lo
		}
		zt := z[:h*t]
		for j := 0; j < t; j++ {
			x := rows[(lo+j)*n : (lo+j+1)*n]
			packReal(zt, t, j, x, meanOf(x))
		}
		hp.batchTransform(zt, t, false)
		for j := 0; j < t; j++ {
			powerInto(&pgs[lo+j], zt, h, t, j, w, n, sampleInterval)
		}
	}
	return nil
}
