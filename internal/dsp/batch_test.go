package dsp

import (
	"math/rand"
	"testing"
)

// batchRows builds b deterministic pseudo-random rows of length n,
// returned row-major, mixing sparse beacon-like rows with dense noise so
// the batch path sees both shapes.
func batchRows(seed int64, b, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]float64, b*n)
	for j := 0; j < b; j++ {
		row := rows[j*n : (j+1)*n]
		if j%2 == 0 {
			stride := 3 + rng.Intn(60)
			for i := rng.Intn(stride); i < n; i += stride {
				row[i] = 1
			}
		} else {
			for i := range row {
				row[i] = rng.Float64()
			}
		}
	}
	return rows
}

// TestPeriodogramRowsDifferential pins the batch contract: every spectrum
// of an interleaved batch must be bit-identical to running the same row
// through the single-series PeriodogramInto, across power-of-two and
// zero-padded lengths (odd ones included, whose last packed sample is
// half pad) and batch sizes that exercise partial tiles. 3600 is an hour
// at 1 s; 7855 is a one-day series after the detector's decimation.
func TestPeriodogramRowsDifferential(t *testing.T) {
	s := NewScratch()
	ref := NewScratch()
	for _, tc := range []struct{ b, n int }{
		{1, 64}, {2, 64}, {7, 256}, {3, 4096}, {20, 4096}, {5, 100}, {4, 1985},
		{20, 3600}, {20, 7855}, {3, 7855},
	} {
		rows := batchRows(int64(tc.b*tc.n), tc.b, tc.n)
		pgs := make([]Periodogram, tc.b)
		if err := s.PeriodogramRowsInto(pgs, rows, tc.n, 1); err != nil {
			t.Fatalf("b=%d n=%d: %v", tc.b, tc.n, err)
		}
		for j := 0; j < tc.b; j++ {
			var want Periodogram
			if err := ref.PeriodogramInto(&want, rows[j*tc.n:(j+1)*tc.n], 1); err != nil {
				t.Fatalf("reference b=%d n=%d j=%d: %v", tc.b, tc.n, j, err)
			}
			if pgs[j].N != want.N || pgs[j].SampleInterval != want.SampleInterval {
				t.Fatalf("b=%d n=%d j=%d: metadata mismatch", tc.b, tc.n, j)
			}
			if len(pgs[j].Power) != len(want.Power) {
				t.Fatalf("b=%d n=%d j=%d: %d power bins, want %d", tc.b, tc.n, j, len(pgs[j].Power), len(want.Power))
			}
			for k := range want.Power {
				if pgs[j].Power[k] != want.Power[k] { // exact: bit-identity is the contract under test
					t.Fatalf("b=%d n=%d j=%d bin %d: %g != %g", tc.b, tc.n, j, k, pgs[j].Power[k], want.Power[k])
				}
			}
		}
	}
}

// TestPeriodogramRowsLayoutsAgree pins that the interleaved and
// sequential layouts are interchangeable bit-for-bit, so SetInterleave is
// purely a measurement knob.
func TestPeriodogramRowsLayoutsAgree(t *testing.T) {
	inter := NewScratch()
	seq := NewScratch()
	seq.SetInterleave(false)
	const b, n = 9, 1024
	rows := batchRows(42, b, n)
	a := make([]Periodogram, b)
	c := make([]Periodogram, b)
	if err := inter.PeriodogramRowsInto(a, rows, n, 2); err != nil {
		t.Fatal(err)
	}
	if err := seq.PeriodogramRowsInto(c, rows, n, 2); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < b; j++ {
		for k := range a[j].Power {
			if a[j].Power[k] != c[j].Power[k] { // exact: bit-identity is the contract under test
				t.Fatalf("row %d bin %d: interleaved %g != sequential %g", j, k, a[j].Power[k], c[j].Power[k])
			}
		}
	}
}

// TestBatchTransformMatchesTransform checks the interleaved butterfly
// schedule against the single-series plan transform, forward and inverse.
func TestBatchTransformMatchesTransform(t *testing.T) {
	const b, n = 5, 512
	rng := rand.New(rand.NewSource(7))
	p := sharedPlanFor(n)
	single := make([][]complex128, b)
	batch := make([]complex128, n*b)
	for j := 0; j < b; j++ {
		single[j] = make([]complex128, n)
		for i := 0; i < n; i++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			single[j][i] = v
			batch[i*b+j] = v
		}
	}
	for _, inverse := range []bool{false, true} {
		sb := append([]complex128(nil), batch...)
		p.batchTransform(sb, b, inverse)
		for j := 0; j < b; j++ {
			ss := append([]complex128(nil), single[j]...)
			p.transform(ss, inverse)
			for i := 0; i < n; i++ {
				if sb[i*b+j] != ss[i] { // exact: bit-identity is the contract under test
					t.Fatalf("inverse=%v series %d sample %d: %v != %v", inverse, j, i, sb[i*b+j], ss[i])
				}
			}
		}
	}
}

// TestPeriodogramRowsShapeErrors pins the input validation.
func TestPeriodogramRowsShapeErrors(t *testing.T) {
	s := NewScratch()
	pgs := make([]Periodogram, 2)
	if err := s.PeriodogramRowsInto(pgs, make([]float64, 129), 64, 1); err == nil {
		t.Error("mismatched rows length should fail")
	}
	if err := s.PeriodogramRowsInto(pgs, make([]float64, 4), 2, 1); err == nil {
		t.Error("short series should fail")
	}
	if err := s.PeriodogramRowsInto(pgs, make([]float64, 128), 64, 0); err == nil {
		t.Error("zero sample interval should fail")
	}
}

// TestPeriodogramRowsIntoAllocs is the //bw:noalloc proof: once the tile
// buffer and the caller's Power buffers are warm, batch spectra touch no
// heap — at a power-of-two length and at one the batch zero-pads.
func TestPeriodogramRowsIntoAllocs(t *testing.T) {
	s := NewScratch()
	const b = 20
	for _, n := range []int{4096, 7855} {
		rows := batchRows(3, b, n)
		pgs := make([]Periodogram, b)
		if err := s.PeriodogramRowsInto(pgs, rows, n, 1); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := s.PeriodogramRowsInto(pgs, rows, n, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op in warm batch periodogram, want 0", n, allocs)
		}
	}
}
