package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// randSeries builds a pseudo-random series with a periodic component, the
// kind of input the detector feeds the spectral routines.
func randSeries(rng *rand.Rand, n int, period int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() * 0.3
		if period > 0 && i%period == 0 {
			x[i] += 1
		}
	}
	return x
}

// naivePeriodogram is the periodogram's definition evaluated directly:
// naiveDFT of the mean-centred series zero-padded to NextPowerOfTwo(n),
// |X_k|^2 / n for k = 0..N/2 — the reference the fast paths must agree
// with.
func naivePeriodogram(x []float64) []float64 {
	n := len(x)
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	padded := make([]complex128, NextPowerOfTwo(n))
	for i, v := range x {
		padded[i] = complex(v-mean, 0)
	}
	spec := naiveDFT(padded)
	out := make([]float64, len(padded)/2+1)
	for k := range out {
		re, im := real(spec[k]), imag(spec[k])
		out[k] = (re*re + im*im) / float64(n)
	}
	return out
}

// naiveACF computes the biased linear autocorrelation estimate directly:
// r[t] = sum_i (x[i]-mean)(x[i+t]-mean), normalized by r[0].
func naiveACF(x []float64) []float64 {
	n := len(x)
	var mean float64
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	out := make([]float64, n)
	var r0 float64
	for _, v := range x {
		d := v - mean
		r0 += d * d
	}
	if r0 <= 0 {
		return out
	}
	for t := 0; t < n; t++ {
		var r float64
		for i := 0; i+t < n; i++ {
			r += (x[i] - mean) * (x[i+t] - mean)
		}
		out[t] = r / r0
	}
	out[0] = 1
	return out
}

// TestScratchPeriodogramMatchesPublic asserts the Scratch path and the
// package-level entry point return bit-identical periodograms (they share
// the same plans), across power-of-two and zero-padded lengths.
func TestScratchPeriodogramMatchesPublic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for _, n := range []int{8, 64, 100, 256, 360, 1000, 1024, 4096} {
		x := randSeries(rng, n, 60)
		want, err := ComputePeriodogram(x, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var pg Periodogram
		if err := s.PeriodogramInto(&pg, x, 1); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if pg.N != want.N || pg.SampleInterval != want.SampleInterval || len(pg.Power) != len(want.Power) {
			t.Fatalf("n=%d: shape mismatch", n)
		}
		for k := range pg.Power {
			if pg.Power[k] != want.Power[k] {
				t.Fatalf("n=%d bin %d: scratch %g != public %g", n, k, pg.Power[k], want.Power[k])
			}
		}
	}
}

// TestPeriodogramMatchesNaiveDFT validates the packed real FFT against
// direct O(n^2) summation of the padded definition, at power-of-two and
// padded lengths: the grid is the padded one (N, len(Power)) while the
// normalisation stays the n real samples.
func TestPeriodogramMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 16, 31, 60, 100, 128} {
		x := randSeries(rng, n, 7)
		want := naivePeriodogram(x)
		pg, err := ComputePeriodogram(x, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if pg.N != NextPowerOfTwo(n) || len(pg.Power) != len(want) {
			t.Fatalf("n=%d: N=%d with %d bins, want N=%d with %d", n, pg.N, len(pg.Power), NextPowerOfTwo(n), len(want))
		}
		for k := range want {
			if math.Abs(pg.Power[k]-want[k]) > 1e-8*(1+math.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: fast %g, naive %g", n, k, pg.Power[k], want[k])
			}
		}
	}
}

// TestAutocorrelationMatchesNaive validates both the lag kernel and the
// packed-real Wiener–Khinchin reference it is held to against direct
// O(n^2) summation.
func TestAutocorrelationMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{2, 3, 8, 50, 100, 127} {
		x := randSeries(rng, n, 9)
		want := naiveACF(x)
		ref, err := autocorrelation(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		kernel := lagACF(x, n)
		for i := range want {
			if math.Abs(ref[i]-want[i]) > 1e-8 || math.Abs(kernel[i]-want[i]) > 1e-8 {
				t.Fatalf("n=%d lag %d: reference %g, kernel %g, naive %g", n, i, ref[i], kernel[i], want[i])
			}
		}
	}
}

// TestScratchZeroVariance covers the all-equal input: the ACF must be
// identically zero (no NaNs from the 0/0 normalization), including into a
// reused buffer that held another series' lags.
func TestScratchZeroVariance(t *testing.T) {
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	val := []float64{3, 3, 3, 3, 3, 3, 3, 3}
	acf := LagACFInto(nil, []int{2, 5}, []float64{1, 1}, 8, 7)
	acf = LagACFInto(acf, idx, val, 8, 7)
	for i, v := range acf {
		if v != 0 {
			t.Fatalf("lag %d: got %g, want 0", i, v)
		}
	}
}

// TestPeriodogramIntoAllocs locks in the tentpole: after warm-up, the
// Scratch periodogram path performs zero heap allocations, at a
// power-of-two length and at lengths it zero-pads.
func TestPeriodogramIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	s := NewScratch()
	var pg Periodogram
	for _, n := range []int{4096, 3600, 7855} {
		x := randSeries(rng, n, 60)
		if err := s.PeriodogramInto(&pg, x, 1); err != nil { // warm plans + buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := s.PeriodogramInto(&pg, x, 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op on the steady-state path, want 0", n, allocs)
		}
	}
}

// TestLagACFIntoAllocs asserts the steady-state ACF path
// (LagACFInto into a warm buffer) is allocation-free.
func TestLagACFIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	idx, val := nonzeroOf(randSeries(rng, 4096, 60))
	dst := LagACFInto(nil, idx, val, 4096, 200)
	allocs := testing.AllocsPerRun(10, func() {
		dst = LagACFInto(dst, idx, val, 4096, 200)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op on the steady-state path, want 0", allocs)
	}
}

func benchSeries(n, period int) []float64 {
	x := make([]float64, n)
	for i := 0; i < n; i += period {
		x[i] = 1
	}
	return x
}

func BenchmarkPeriodogram_4096(b *testing.B) {
	x := benchSeries(4096, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputePeriodogram(x, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodogramScratch_4096 measures the fully scratch-reusing path
// the detector runs in steady state.
func BenchmarkPeriodogramScratch_4096(b *testing.B) {
	x := benchSeries(4096, 60)
	s := NewScratch()
	var pg Periodogram
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.PeriodogramInto(&pg, x, 1); err != nil {
			b.Fatal(err)
		}
	}
}
