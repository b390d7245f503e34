package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// autocorrelation is the FFT estimator step 3 used before LagACFInto, kept
// as its reference: the series is mean-centred, zero-padded to a power of
// two m >= 2n (so the circular estimate is the linear one), and both
// transforms of the Wiener–Khinchin round-trip run as packed real FFTs at
// m/2; lag t is the real part of FFT_m(|X|²)[t] over its lag-0 value.
func autocorrelation(x []float64) ([]float64, error) {
	n := len(x)
	if n < 2 {
		return nil, fmt.Errorf("%w: n=%d", ErrShortSeries, n)
	}
	m := NextPowerOfTwo(2 * n)
	h := m / 2
	z := make([]complex128, h)
	packNatural(z, x, meanOf(x))
	radix2Transform(z)

	// Power spectrum P[k] = |X[k]|^2 for k = 0..m-1 (even: P[m-k] = P[k]).
	w := radix2Twiddles(m)
	power := make([]float64, m)
	for k := 0; k < h; k++ {
		xk, xkh := unpackSpectrum(z, w, k)
		power[k] = abs2(xk)
		power[k+h] = abs2(xkh)
	}

	// ACF[t] ∝ Re(FFT_m(P)[t]); P is real, so pack it the same way. The
	// unnormalized transform suffices: normalization divides by lag 0.
	for j := 0; j < h; j++ {
		z[j] = complex(power[2*j], power[2*j+1])
	}
	radix2Transform(z)

	dst := make([]float64, n)
	x0, _ := unpackSpectrum(z, w, 0)
	norm := real(x0)
	if norm <= 0 || math.IsNaN(norm) {
		return dst, nil // zero-variance series: ACF identically zero
	}
	for t := 0; t < n; t++ {
		xt, _ := unpackSpectrum(z, w, t)
		dst[t] = real(xt) / norm
	}
	dst[0] = 1
	return dst, nil
}

// nonzeroOf lists x's nonzero samples the way LagACFInto takes a series.
func nonzeroOf(x []float64) (idx []int, val []float64) {
	for i, v := range x {
		if v != 0 {
			idx = append(idx, i)
			val = append(val, v)
		}
	}
	return idx, val
}

// lagACF is LagACFInto over a dense series.
func lagACF(x []float64, maxLag int) []float64 {
	idx, val := nonzeroOf(x)
	return LagACFInto(nil, idx, val, len(x), maxLag)
}

// TestAutocorrelationErrors pins the reference's input validation.
func TestAutocorrelationErrors(t *testing.T) {
	if _, err := autocorrelation(nil); err == nil {
		t.Error("expected error for nil input")
	}
	if _, err := autocorrelation([]float64{1}); err == nil {
		t.Error("expected error for single sample")
	}
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	acf := lagACF(x, len(x))
	if acf[0] != 1 {
		t.Errorf("acf[0] = %v, want 1", acf[0])
	}
	if len(acf) != len(x) {
		t.Errorf("len(acf) = %d, want %d (maxLag clamps to n-1)", len(acf), len(x))
	}
}

func TestAutocorrelationZeroVariance(t *testing.T) {
	for _, c := range []float64{0, 7} {
		x := make([]float64, 50)
		for i := range x {
			x[i] = c
		}
		for lag, v := range lagACF(x, 49) {
			if v != 0 {
				t.Fatalf("constant %v: acf[%d] = %v, want 0", c, lag, v)
			}
		}
	}
}

func TestAutocorrelationPeriodicSignalPeaksAtPeriod(t *testing.T) {
	// Impulse train with period 20: ACF must peak at lag 20 among lags 1..30.
	n := 400
	x := make([]float64, n)
	for i := 0; i < n; i += 20 {
		x[i] = 1
	}
	acf := lagACF(x, 30)
	best, bestLag := math.Inf(-1), 0
	for lag := 1; lag <= 30; lag++ {
		if acf[lag] > best {
			best = acf[lag]
			bestLag = lag
		}
	}
	if bestLag != 20 {
		t.Errorf("ACF peak at lag %d, want 20", bestLag)
	}
	if best < 0.5 {
		t.Errorf("ACF peak value %v, want >= 0.5", best)
	}
}

// Property: |acf[lag]| <= 1 for all lags (Cauchy-Schwarz).
func TestAutocorrelationBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(300)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		for _, v := range lagACF(x, n) {
			if v > 1+1e-9 || v < -1-1e-9 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the ACF of a series offset by a constant is unchanged — here
// the offset also turns a series with zero samples into a dense one.
func TestAutocorrelationShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 128
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		if i%3 == 0 {
			x[i] = rng.NormFloat64()
		}
		y[i] = x[i] + 100 // constant offset
	}
	ax, ay := lagACF(x, n), lagACF(y, n)
	for lag := range ax {
		if math.Abs(ax[lag]-ay[lag]) > 1e-6 {
			t.Fatalf("lag %d: acf differs under constant shift: %v vs %v", lag, ax[lag], ay[lag])
		}
	}
}

// lagCases are the series TestLagACFMatchesReference runs, each with the
// lags it evaluates: sparse beacon counts on a one-day fine basis and on
// its 11x decimation (the detector's two bases), rebinned counts, dense
// counts up to 10^4, spikes of 10^4 in empty bins, constant and all-zero
// series, and maxLag beyond the series (B < L).
func lagCases() []struct {
	name   string
	x      []float64
	maxLag int
} {
	rng := rand.New(rand.NewSource(31))
	type lagCase = struct {
		name   string
		x      []float64
		maxLag int
	}
	var cases []lagCase
	fine := make([]float64, 86400)
	for t := 0.0; t < 86400; t += 300 + rng.NormFloat64()*2 {
		if i := int(t); i >= 0 && i < len(fine) {
			fine[i]++
		}
	}
	for i := 0; i < 40; i++ {
		fine[rng.Intn(len(fine))]++
	}
	rebin := func(x []float64, f int) []float64 {
		out := make([]float64, (len(x)+f-1)/f)
		for i, v := range x {
			out[i/f] += v
		}
		return out
	}
	decimated := rebin(fine, 11)
	for _, l := range []int{1, 40, 149, 700} {
		cases = append(cases,
			lagCase{fmt.Sprintf("fine-basis/L=%d", l), fine, l},
			lagCase{fmt.Sprintf("decimated-basis/L=%d", l), decimated, l},
			lagCase{fmt.Sprintf("rebinned-x20/L=%d", l), rebin(decimated, 20), l})
	}
	cases = append(cases, lagCase{"decimated-basis/L=n-1", decimated, len(decimated) - 1})
	beacon := make([]float64, 4096)
	for i := 0; i < len(beacon); i += 60 {
		beacon[i] = 1
	}
	cases = append(cases, lagCase{"beacon-4096/L=149", beacon, 149})
	dense := make([]float64, 2000)
	spikes := make([]float64, 5000)
	poisson := make([]float64, 1500)
	for i := range dense {
		dense[i] = float64(rng.Intn(10001))
	}
	for i := 0; i < 60; i++ {
		spikes[rng.Intn(len(spikes))] = float64(1 + rng.Intn(10000))
	}
	for i := range poisson {
		for t := rng.ExpFloat64(); t < 4; t += rng.ExpFloat64() {
			poisson[i]++
		}
	}
	constant := make([]float64, 300)
	for i := range constant {
		constant[i] = 3
	}
	cases = append(cases,
		lagCase{"dense-counts-to-1e4/L=300", dense, 300},
		lagCase{"spikes-1e4/L=2500", spikes, 2500},
		lagCase{"dense-poisson/L=200", poisson, 200},
		lagCase{"constant/L=100", constant, 100},
		lagCase{"all-zero/L=10", make([]float64, 64), 10},
		lagCase{"B<L/n=20", beacon[:20], 100},
		lagCase{"n=2", []float64{1, 0}, 5},
		lagCase{"n=3", []float64{0, 2, 1}, 2})
	return cases
}

// TestLagACFMatchesReference holds the lag kernel to the FFT estimator it
// replaced: within 1e-12 absolute at every lag it evaluates, with maxLag
// clamped to the series.
func TestLagACFMatchesReference(t *testing.T) {
	var dst []float64
	for _, tc := range lagCases() {
		want, err := autocorrelation(tc.x)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		idx, val := nonzeroOf(tc.x)
		dst = LagACFInto(dst, idx, val, len(tc.x), tc.maxLag) // one buffer across sizes
		if wantLen := min(tc.maxLag, len(tc.x)-1) + 1; len(dst) != wantLen {
			t.Fatalf("%s: %d lags, want %d", tc.name, len(dst), wantLen)
		}
		for lag, got := range dst {
			if math.Abs(got-want[lag]) > 1e-12 {
				t.Errorf("%s lag %d: kernel %.17g, reference %.17g", tc.name, lag, got, want[lag])
			}
		}
	}
}

func TestValidateHillOnPeak(t *testing.T) {
	// Construct a synthetic ACF with a clear hill at lag 25.
	acf := make([]float64, 100)
	acf[0] = 1
	for l := 1; l < 100; l++ {
		d := float64(l - 25)
		acf[l] = 0.8 * math.Exp(-d*d/50)
	}
	res := ValidateHill(acf, 15, 35)
	if !res.OnHill {
		t.Fatalf("expected hill; result %+v", res)
	}
	if res.PeakLag != 25 {
		t.Errorf("PeakLag = %d, want 25", res.PeakLag)
	}
	if math.Abs(res.PeakValue-0.8) > 1e-9 {
		t.Errorf("PeakValue = %v, want 0.8", res.PeakValue)
	}
	if res.SlopeLeft <= 0 || res.SlopeRight >= 0 {
		t.Errorf("slopes = (%v, %v), want (+, -)", res.SlopeLeft, res.SlopeRight)
	}
}

func TestValidateHillOnDecay(t *testing.T) {
	// A monotonically decaying ACF (e.g. AR(1) noise) must not validate.
	acf := make([]float64, 100)
	for l := range acf {
		acf[l] = math.Pow(0.9, float64(l))
	}
	res := ValidateHill(acf, 10, 40)
	if res.OnHill {
		t.Fatalf("decaying ACF validated as hill: %+v", res)
	}
}

func TestValidateHillWindowClamping(t *testing.T) {
	acf := []float64{1, 0.5, 0.8, 0.5, 0.2}
	// Window extends beyond both ends; must clamp and not panic.
	res := ValidateHill(acf, -10, 100)
	if res.PeakLag != 2 {
		t.Errorf("PeakLag = %d, want 2", res.PeakLag)
	}
}

func TestValidateHillDegenerateWindow(t *testing.T) {
	acf := []float64{1, 0.9, 0.8, 0.7}
	res := ValidateHill(acf, 2, 2)
	if res.OnHill {
		t.Error("single-point window must not be a hill")
	}
	if res.PeakLag != 2 {
		t.Errorf("PeakLag = %d, want 2", res.PeakLag)
	}
	res = ValidateHill(acf, 3, 1)
	if res.OnHill {
		t.Error("inverted window must not be a hill")
	}
}

func TestValidateHillNoiseWindow(t *testing.T) {
	// White-noise ACF: hills should mostly fail; at minimum, no panic and
	// a sane peak lag inside the window.
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	res := ValidateHill(lagACF(x, 80), 40, 80)
	if res.PeakLag < 40 || res.PeakLag > 80 {
		t.Errorf("PeakLag %d outside window [40, 80]", res.PeakLag)
	}
}

// BenchmarkLagACF_4096 evaluates the lags step 3 reads for a 60-bin
// candidate (lag window 51..69, trough and resurgence up to lag 149) on a
// 4,096-bin beacon series.
func BenchmarkLagACF_4096(b *testing.B) {
	idx, val := nonzeroOf(benchSeries(4096, 60))
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = LagACFInto(dst, idx, val, 4096, 149)
	}
}
