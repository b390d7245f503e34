package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

// The detector transforms only through the packed real paths of a Scratch;
// these whole-array entry points over the same plans exist to test the
// transform itself.

var (
	errEmptyInput    = errors.New("dsp: empty input")
	errNotPowerOfTwo = errors.New("dsp: transform length is not a power of two")
)

// isPowerOfTwo reports whether n is a positive power of two.
func isPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// transformInPlace validates x's length and runs the forward transform
// over it in place: natural order in, natural order out.
func transformInPlace(x []complex128) error {
	switch n := len(x); {
	case n == 0:
		return errEmptyInput
	case !isPowerOfTwo(n):
		return fmt.Errorf("%w: n=%d", errNotPowerOfTwo, n)
	case n > 1:
		p := sharedPlanFor(n)
		bitReverse(x, p.rev)
		p.transform(x, 1)
	}
	return nil
}

// bitReverse permutes x into the bit-reversed order transform takes (the
// packers load their samples that way instead).
func bitReverse(x []complex128, rev []int32) {
	for i, r := range rev {
		if int(r) > i {
			x[i], x[r] = x[r], x[i]
		}
	}
}

// The radix-2 path the detector ran before the radix-4 kernel, kept as the
// reference the kernel and the packed real spectra are checked against:
// a natural-order pack, a swap pass, one butterfly stage per bit, and an
// unpack that takes each bin from its own twiddle.

// radix2Twiddles is the table w[j] = exp(-2πi·j/m), j < m/2.
func radix2Twiddles(m int) []complex128 {
	w := make([]complex128, m/2)
	for j := range w {
		w[j] = cis(-2 * math.Pi * float64(j) / float64(m))
	}
	return w
}

// radix2Transform is the in-place forward radix-2 FFT of x, whose length
// is a power of two, in natural order in and out.
func radix2Transform(x []complex128) {
	n := len(x)
	if n < 2 {
		return
	}
	bitReverse(x, sharedPlanFor(n).rev)
	w := radix2Twiddles(n)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * w[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
			}
		}
	}
}

// packNatural loads the mean-centred real series src, zero-padded to
// 2·len(z) samples, into z as z[i] = (src[2i]-mean) + i·(src[2i+1]-mean).
func packNatural(z []complex128, src []float64, mean float64) {
	for i := range z {
		var v complex128
		switch j := 2 * i; {
		case j+1 < len(src):
			v = complex(src[j]-mean, src[j+1]-mean)
		case j < len(src):
			v = complex(src[j]-mean, 0)
		}
		z[i] = v
	}
}

// unpackSpectrum recovers bins k and k+h of the length-2h spectrum of the
// transformed packed series z (h = len(z)) from the table
// w = radix2Twiddles(2h).
func unpackSpectrum(z, w []complex128, k int) (xk, xkh complex128) {
	h := len(z)
	zk := z[k]
	zc := cmplx.Conj(z[(h-k)&(h-1)])
	e := (zk + zc) * complex(0.5, 0)
	o := (zk - zc) * complex(0, -0.5)
	wo := w[k] * o
	return e + wo, e - wo
}

func abs2(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// radix2Periodogram is PeriodogramInto's powers taken the radix-2 way.
func radix2Periodogram(x []float64) []float64 {
	h := NextPowerOfTwo(len(x)) / 2
	z := make([]complex128, h)
	packNatural(z, x, meanOf(x))
	radix2Transform(z)
	w := radix2Twiddles(2 * h)
	power := make([]float64, h+1)
	inv := 1 / float64(len(x))
	for k := 0; k < h; k++ {
		xk, _ := unpackSpectrum(z, w, k)
		power[k] = abs2(xk) * inv
	}
	_, xh := unpackSpectrum(z, w, 0)
	power[h] = abs2(xh) * inv
	return power
}

// fft is the discrete Fourier transform of x (length a power of two), as a
// new slice.
func fft(x []complex128) ([]complex128, error) {
	out := append([]complex128(nil), x...)
	if err := transformInPlace(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ifft is the inverse transform with its 1/N normalisation, taken as
// conj(fft(conj(x)))/N.
func ifft(x []complex128) ([]complex128, error) {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = cmplx.Conj(v)
	}
	if err := transformInPlace(out); err != nil {
		return nil, err
	}
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] = cmplx.Conj(out[i]) / n
	}
	return out, nil
}

// fftReal transforms a real-valued series whose length is a power of two.
func fftReal(x []float64) ([]complex128, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	if err := transformInPlace(cx); err != nil {
		return nil, err
	}
	return cx, nil
}

// naiveDFT computes the DFT by direct O(n^2) summation: the reference the
// transform is checked against, and the convention it follows (negative
// exponent forward transform).
func naiveDFT(x []complex128) []complex128 {
	roots := unitRoots(len(x))
	out := make([]complex128, len(x))
	for k := range out {
		out[k] = naiveBin(x, roots, k)
	}
	return out
}

// unitRoots is the table exp(-2πi·m/n), m < n.
func unitRoots(n int) []complex128 {
	roots := make([]complex128, n)
	for m := range roots {
		roots[m] = cis(-2 * math.Pi * float64(m) / float64(n))
	}
	return roots
}

// naiveBin is bin k of x's DFT by direct summation over the roots of
// unity of len(x). The exponent k·t is reduced mod n in integers, so every
// term's phase is accurate to the last bit at any length.
func naiveBin(x, roots []complex128, k int) complex128 {
	n := len(x)
	var sum complex128
	for t, v := range x {
		sum += v * roots[k*t%n]
	}
	return sum
}

func complexSliceClose(t *testing.T, got, want []complex128, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length mismatch: got %d want %d", len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("index %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestFFTEmptyInput(t *testing.T) {
	if _, err := fft(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := ifft(nil); err == nil {
		t.Fatal("expected error for empty IFFT input")
	}
	if _, err := fftReal(nil); err == nil {
		t.Fatal("expected error for empty FFTReal input")
	}
}

func TestFFTSingleElement(t *testing.T) {
	got, err := fft([]complex128{complex(3, -2)})
	if err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, got, []complex128{complex(3, -2)}, eps)
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is [1, 1, 1, 1].
	got, err := fft([]complex128{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, got, []complex128{1, 1, 1, 1}, eps)

	// DFT of [1, 1, 1, 1] is [4, 0, 0, 0].
	got, err = fft([]complex128{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, got, []complex128{4, 0, 0, 0}, eps)
}

func TestFFTMatchesNaiveDFTPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		got, err := fft(x)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x)
		complexSliceClose(t, got, want, 1e-7*float64(n))
	}
}

// TestFFTRejectsNonPowerOfTwo pins the entry points' length contract:
// every spectrum the detector takes is zero-padded to a power of two, so
// no arbitrary-length transform exists and other lengths are an error.
func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, 17, 100, 101, 255, 1000} {
		if _, err := fft(make([]complex128, n)); !errors.Is(err, errNotPowerOfTwo) {
			t.Errorf("FFT n=%d: err = %v, want errNotPowerOfTwo", n, err)
		}
		if _, err := ifft(make([]complex128, n)); !errors.Is(err, errNotPowerOfTwo) {
			t.Errorf("IFFT n=%d: err = %v, want errNotPowerOfTwo", n, err)
		}
		if _, err := fftReal(make([]float64, n)); !errors.Is(err, errNotPowerOfTwo) {
			t.Errorf("FFTReal n=%d: err = %v, want errNotPowerOfTwo", n, err)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 32, 128, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		spec, err := fft(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ifft(spec)
		if err != nil {
			t.Fatal(err)
		}
		complexSliceClose(t, back, x, 1e-8*float64(n+1))
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]complex128(nil), x...)
	if _, err := fft(x); err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, x, orig, 0)
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 64
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	fa, _ := fft(a)
	fb, _ := fft(b)
	fsum, _ := fft(sum)
	want := make([]complex128, n)
	for i := range want {
		want[i] = 2*fa[i] + 3*fb[i]
	}
	complexSliceClose(t, fsum, want, 1e-7)
}

// TestFFTParseval verifies Parseval's theorem: sum |x|^2 == sum |X|^2 / N.
func TestFFTParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 << rng.Intn(9)
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		spec, err := fft(x)
		if err != nil {
			return false
		}
		var freqEnergy float64
		for _, v := range spec {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) < 1e-6*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFFTImpulseShift: the DFT of a shifted impulse has unit magnitude
// everywhere (time shift is a pure phase rotation).
func TestFFTImpulseShift(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 << rng.Intn(7)
		shift := rng.Intn(n)
		x := make([]complex128, n)
		x[shift] = 1
		spec, err := fft(x)
		if err != nil {
			return false
		}
		for _, v := range spec {
			if math.Abs(cmplx.Abs(v)-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := []struct{ in, want int }{
		{-5, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8},
		{1023, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPowerOfTwo(c.in); got != c.want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if !isPowerOfTwo(n) {
			t.Errorf("isPowerOfTwo(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 1000} {
		if isPowerOfTwo(n) {
			t.Errorf("isPowerOfTwo(%d) = true, want false", n)
		}
	}
}

func TestFFTRealPureTone(t *testing.T) {
	// A pure cosine at bin 5 of a 64-sample window concentrates power there.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * 5 * float64(i) / float64(n))
	}
	spec, err := fftReal(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= n/2; k++ {
		mag := cmplx.Abs(spec[k])
		if k == 5 {
			if math.Abs(mag-float64(n)/2) > 1e-8 {
				t.Errorf("bin 5 magnitude = %v, want %v", mag, float64(n)/2)
			}
		} else if mag > 1e-8 {
			t.Errorf("bin %d magnitude = %v, want ~0", k, mag)
		}
	}
}

func BenchmarkFFTPow2_1024(b *testing.B) {
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fft(x); err != nil {
			b.Fatal(err)
		}
	}
}
