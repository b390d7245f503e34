package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// shuffledRows builds b shuffles of one pseudo-random base row of length
// n, returned row-major: the permutation null's input shape. A sparse
// base is a beacon-like count series, whose mean every arrangement
// reproduces exactly; a dense one is real-valued noise.
func shuffledRows(seed int64, b, n int, sparse bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	base := make([]float64, n)
	if sparse {
		stride := 3 + rng.Intn(60)
		for i := rng.Intn(stride); i < n; i += stride {
			base[i] = float64(1 + rng.Intn(3))
		}
	} else {
		for i := range base {
			base[i] = rng.Float64()
		}
	}
	rows := make([]float64, b*n)
	for j := 0; j < b; j++ {
		row := rows[j*n : (j+1)*n]
		copy(row, base)
		rng.Shuffle(n, func(a, c int) { row[a], row[c] = row[c], row[a] })
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

// relClose reports whether got is within tol of want, relative to want.
func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// rowCases are the batch shapes the maxima tests run: power-of-two and
// zero-padded lengths (odd ones included, whose last packed sample is
// half pad) and batch sizes that exercise partial tiles. 3600 is an hour
// at 1 s; 7855 is a one-day series after the detector's decimation; 8192
// is the full analysis length.
var rowCases = []struct{ b, n int }{
	{1, 4}, {1, 64}, {2, 64}, {20, 64}, {7, 256}, {3, 4096}, {20, 4096}, {5, 100}, {4, 1985},
	{20, 3600}, {20, 7855}, {3, 7855}, {20, 8192},
}

// TestPeriodogramRowsDifferential pins the batch maxima contract: the
// maximum MaxPowersInto reports for every row of an interleaved batch is
// PeriodogramInto + MaxPower over that row alone — bit for bit over count
// rows, whose mean every arrangement reproduces exactly, and to 1e-12
// relative over real-valued rows, whose shuffles sum their mean in
// another order.
func TestPeriodogramRowsDifferential(t *testing.T) {
	s := NewScratch()
	ref := NewScratch()
	var maxima []float64
	for _, tc := range rowCases {
		for _, sparse := range []bool{true, false} {
			rows := shuffledRows(int64(tc.b*tc.n), tc.b, tc.n, sparse)
			var err error
			mean := meanOf(rows[:tc.n])
			maxima, err = s.MaxPowersInto(maxima[:0], tc.n, tc.b, mean, rowFeed(rows, tc.n))
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
				if sparse && math.Float64bits(maxima[j]) != math.Float64bits(want) {
					t.Fatalf("counts b=%d n=%d j=%d: max power %g != %g", tc.b, tc.n, j, maxima[j], want)
				}
				if !relClose(maxima[j], want, 1e-12) {
					t.Fatalf("noise b=%d n=%d j=%d: max power %g, want %g", tc.b, tc.n, j, maxima[j], want)
				}
			}
		}
	}
}

// TestMaxPowersMatchRadix2 holds the batch maxima to the radix-2 path
// they replaced, within 1e-12 relative.
func TestMaxPowersMatchRadix2(t *testing.T) {
	s := NewScratch()
	for _, tc := range rowCases {
		for _, sparse := range []bool{true, false} {
			rows := shuffledRows(int64(tc.b+tc.n), tc.b, tc.n, sparse)
			maxima, err := s.MaxPowersInto(nil, tc.n, tc.b, meanOf(rows[:tc.n]), rowFeed(rows, tc.n))
			if err != nil {
				t.Fatal(err)
			}
			for j, got := range maxima {
				power := radix2Periodogram(rows[j*tc.n : (j+1)*tc.n])
				pg := Periodogram{Power: power}
				want, _ := pg.MaxPower()
				if !relClose(got, want, 1e-12) {
					t.Fatalf("b=%d n=%d sparse=%v j=%d: max power %g, radix-2 %g", tc.b, tc.n, sparse, j, got, want)
				}
			}
		}
	}
}

// TestPeriodogramMatchesRadix2 holds every bin of PeriodogramInto to the
// radix-2 path within 1e-12 of the spectrum's peak.
func TestPeriodogramMatchesRadix2(t *testing.T) {
	s := NewScratch()
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 5, 8, 63, 64, 100, 1985, 3600, 4096, 7855, 8192} {
		for _, sparse := range []bool{true, false} {
			x := shuffledRows(rng.Int63(), 1, n, sparse)
			var pg Periodogram
			if err := s.PeriodogramInto(&pg, x, 1); err != nil {
				t.Fatal(err)
			}
			want := radix2Periodogram(x)
			if len(pg.Power) != len(want) {
				t.Fatalf("n=%d: %d bins, want %d", n, len(pg.Power), len(want))
			}
			var peak float64
			for _, v := range want {
				peak = math.Max(peak, v)
			}
			for k, v := range pg.Power {
				if math.Abs(v-want[k]) > 1e-12*peak {
					t.Fatalf("n=%d sparse=%v bin %d: power %g, radix-2 %g", n, sparse, k, v, want[k])
				}
			}
		}
	}
}

// TestTransformMatchesNaiveDFT checks the radix-4 kernel at every power of
// two from 2 to 2¹⁷ — odd and even log₂n, so with and without its leading
// radix-2 pass — alone (b = 1) and in a 3-wide tile, against direct
// summation within 1e-12 of the spectrum's peak. Past 2¹⁰ the reference
// is evaluated at a sample of bins (both ends, the middle, and random
// ones) to keep it O(n).
func TestTransformMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for lg := 1; lg <= 17; lg++ {
		n := 1 << lg
		p := sharedPlanFor(n)
		roots := unitRoots(n)
		bins := []int{0, 1, n / 2, n - 1}
		if n <= 1<<10 {
			bins = bins[:0]
			for k := 0; k < n; k++ {
				bins = append(bins, k)
			}
		} else {
			for i := 0; i < 40; i++ {
				bins = append(bins, rng.Intn(n))
			}
		}
		for _, b := range []int{1, 3} {
			t.Run(fmt.Sprintf("n=%d/b=%d", n, b), func(t *testing.T) {
				series := make([][]complex128, b)
				tile := make([]complex128, n*b)
				for j := range series {
					series[j] = make([]complex128, n)
					for i := range series[j] {
						series[j][i] = complex(rng.NormFloat64(), rng.NormFloat64())
					}
					for s, r := range p.rev {
						tile[s*b+j] = series[j][r]
					}
				}
				p.transform(tile, b)
				for j, x := range series {
					want := make([]complex128, len(bins))
					var peak float64
					for i, k := range bins {
						want[i] = naiveBin(x, roots, k)
						peak = math.Max(peak, cmplx.Abs(want[i]))
					}
					for i, k := range bins {
						if got := tile[k*b+j]; cmplx.Abs(got-want[i]) > 1e-12*peak {
							t.Fatalf("series %d bin %d: %v, naive %v", j, k, got, want[i])
						}
					}
				}
			})
		}
	}
}

// TestBatchTransformMatchesTransform checks that the kernel run over an
// interleaved tile is bit-identical, series by series, to running it over
// each series alone (b = 1).
func TestBatchTransformMatchesTransform(t *testing.T) {
	const b = 5
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{512, 1024} {
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
		p.transform(batch, b)
		for j := 0; j < b; j++ {
			p.transform(single[j], 1)
			for i := 0; i < n; i++ {
				if batch[i*b+j] != single[j][i] { // exact: bit-identity is the contract under test
					t.Fatalf("n=%d series %d sample %d: %v != %v", n, j, i, batch[i*b+j], single[j][i])
				}
			}
		}
	}
}

// TestPeriodogramRowsShapeErrors pins the batch kernel's input
// validation: series too short for a spectrum fail without consuming a
// row.
func TestPeriodogramRowsShapeErrors(t *testing.T) {
	s := NewScratch()
	_, err := s.MaxPowersInto(nil, 3, 2, 0, func() []float64 {
		t.Fatal("next called for a short series")
		return nil
	})
	if !errors.Is(err, ErrShortSeries) {
		t.Errorf("n=3: err = %v, want ErrShortSeries", err)
	}
}

// TestMaxPowersIntoAllocs: once the tile buffer and the caller's maxima
// buffer are warm, batch maxima touch no heap — at a power-of-two length
// and at one the batch zero-pads.
func TestMaxPowersIntoAllocs(t *testing.T) {
	s := NewScratch()
	const b = 20
	for _, n := range []int{4096, 7855} {
		row := shuffledRows(3, 1, n, true)
		mean := meanOf(row)
		next := func() []float64 { return row }
		maxima, err := s.MaxPowersInto(nil, n, b, mean, next)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if maxima, err = s.MaxPowersInto(maxima[:0], n, b, mean, next); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op in warm batch maxima, want 0", n, allocs)
		}
	}
}
