package dsp

import (
	"errors"
	"math"
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

// rowFeed returns a MaxPowersInto callback handing out the rows in order
// through one reused buffer, as the detector's shuffle does.
func rowFeed(rows []float64, n int) func() []float64 {
	buf := make([]float64, n)
	next := 0
	return func() []float64 {
		copy(buf, rows[next*n:(next+1)*n])
		next++
		return buf
	}
}

// TestPeriodogramRowsDifferential pins the batch maxima contract: the
// maximum MaxPowersInto reports for every row of an interleaved batch must
// be bit-identical to PeriodogramInto + MaxPower over that row alone,
// across power-of-two and zero-padded lengths (odd ones included, whose
// last packed sample is half pad) and batch sizes that exercise partial
// tiles. 3600 is an hour at 1 s; 7855 is a one-day series after the
// detector's decimation; 8192 is the full analysis length.
func TestPeriodogramRowsDifferential(t *testing.T) {
	s := NewScratch()
	ref := NewScratch()
	var maxima []float64
	for _, tc := range []struct{ b, n int }{
		{1, 64}, {2, 64}, {20, 64}, {7, 256}, {3, 4096}, {20, 4096}, {5, 100}, {4, 1985},
		{20, 3600}, {20, 7855}, {3, 7855}, {20, 8192},
	} {
		rows := batchRows(int64(tc.b*tc.n), tc.b, tc.n)
		var err error
		maxima, err = s.MaxPowersInto(maxima[:0], tc.n, tc.b, rowFeed(rows, tc.n))
		if err != nil {
			t.Fatalf("b=%d n=%d: %v", tc.b, tc.n, err)
		}
		if len(maxima) != tc.b {
			t.Fatalf("b=%d n=%d: %d maxima", tc.b, tc.n, len(maxima))
		}
		for j := 0; j < tc.b; j++ {
			var pg Periodogram
			if err := ref.PeriodogramInto(&pg, rows[j*tc.n:(j+1)*tc.n], 1); err != nil {
				t.Fatalf("reference b=%d n=%d j=%d: %v", tc.b, tc.n, j, err)
			}
			want, _ := pg.MaxPower()
			if math.Float64bits(maxima[j]) != math.Float64bits(want) {
				t.Fatalf("b=%d n=%d j=%d: max power %g != %g", tc.b, tc.n, j, maxima[j], want)
			}
		}
	}
}

// TestBatchTransformMatchesTransform checks the interleaved butterfly
// schedule against the single-series plan transform.
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
	p.batchTransform(batch, b)
	for j := 0; j < b; j++ {
		p.transform(single[j])
		for i := 0; i < n; i++ {
			if batch[i*b+j] != single[j][i] { // exact: bit-identity is the contract under test
				t.Fatalf("series %d sample %d: %v != %v", j, i, batch[i*b+j], single[j][i])
			}
		}
	}
}

// TestPeriodogramRowsShapeErrors pins the batch kernel's input
// validation: series too short for a spectrum fail without consuming a
// row.
func TestPeriodogramRowsShapeErrors(t *testing.T) {
	s := NewScratch()
	_, err := s.MaxPowersInto(nil, 3, 2, func() []float64 {
		t.Fatal("next called for a short series")
		return nil
	})
	if !errors.Is(err, ErrShortSeries) {
		t.Errorf("n=3: err = %v, want ErrShortSeries", err)
	}
}

// TestPeriodogramRowsIntoAllocs: once the tile buffer and the caller's
// maxima buffer are warm, batch maxima touch no heap — at a power-of-two
// length and at one the batch zero-pads.
func TestPeriodogramRowsIntoAllocs(t *testing.T) {
	s := NewScratch()
	const b = 20
	for _, n := range []int{4096, 7855} {
		rows := batchRows(3, b, n)
		row := rows[:n]
		next := func() []float64 { return row }
		maxima, err := s.MaxPowersInto(nil, n, b, next)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if maxima, err = s.MaxPowersInto(maxima[:0], n, b, next); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op in warm batch maxima, want 0", n, allocs)
		}
	}
}
