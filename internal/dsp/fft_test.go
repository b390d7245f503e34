package dsp

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

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
	if _, err := FFT(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := IFFT(nil); err == nil {
		t.Fatal("expected error for empty IFFT input")
	}
	if _, err := FFTReal(nil); err == nil {
		t.Fatal("expected error for empty FFTReal input")
	}
}

func TestFFTSingleElement(t *testing.T) {
	got, err := FFT([]complex128{complex(3, -2)})
	if err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, got, []complex128{complex(3, -2)}, eps)
}

func TestFFTKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is [1, 1, 1, 1].
	got, err := FFT([]complex128{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	complexSliceClose(t, got, []complex128{1, 1, 1, 1}, eps)

	// DFT of [1, 1, 1, 1] is [4, 0, 0, 0].
	got, err = FFT([]complex128{1, 1, 1, 1})
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
		got, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		want := NaiveDFT(x)
		complexSliceClose(t, got, want, 1e-7*float64(n))
	}
}

// TestFFTRejectsNonPowerOfTwo pins the entry points' length contract:
// every spectrum the detector takes is zero-padded to a power of two, so
// no arbitrary-length transform exists and other lengths are an error.
func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7, 12, 17, 100, 101, 255, 1000} {
		if _, err := FFT(make([]complex128, n)); !errors.Is(err, ErrNotPowerOfTwo) {
			t.Errorf("FFT n=%d: err = %v, want ErrNotPowerOfTwo", n, err)
		}
		if _, err := IFFT(make([]complex128, n)); !errors.Is(err, ErrNotPowerOfTwo) {
			t.Errorf("IFFT n=%d: err = %v, want ErrNotPowerOfTwo", n, err)
		}
		if _, err := FFTReal(make([]float64, n)); !errors.Is(err, ErrNotPowerOfTwo) {
			t.Errorf("FFTReal n=%d: err = %v, want ErrNotPowerOfTwo", n, err)
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
		spec, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		back, err := IFFT(spec)
		if err != nil {
			t.Fatal(err)
		}
		complexSliceClose(t, back, x, 1e-8*float64(n+1))
	}
}

func TestFFTDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]complex128(nil), x...)
	if _, err := FFT(x); err != nil {
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
	fa, _ := FFT(a)
	fb, _ := FFT(b)
	fsum, _ := FFT(sum)
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
		spec, err := FFT(x)
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
		spec, err := FFT(x)
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
		if !IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = false, want true", n)
		}
	}
	for _, n := range []int{0, -1, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("IsPowerOfTwo(%d) = true, want false", n)
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
	spec, err := FFTReal(x)
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
		if _, err := FFT(x); err != nil {
			b.Fatal(err)
		}
	}
}
