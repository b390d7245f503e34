// Package dsp provides the signal-processing primitives BAYWATCH's
// periodicity detector is built on: a radix-2 fast Fourier transform,
// periodogram estimation, and circular autocorrelation via the
// Wiener–Khinchin theorem.
//
// Every transform runs at a power-of-two length. Sect. IV of the paper
// fixes the statistic (periodogram against a permutation null, then the
// ACF), not the transform length, so a series of any length n is
// mean-centred and zero-padded to NextPowerOfTwo(n) before its spectrum is
// taken; the permutation null pads its shuffles the same way, so the
// observed spectrum and the null share one definition. No arbitrary-length
// (chirp-z) transform is needed.
//
// The Go standard library ships no FFT, so the transform is implemented here
// from scratch. All routines are deterministic and allocation-conscious;
// the detector calls them once per communication pair per analysis window,
// which for a large enterprise means tens of millions of invocations per day.
package dsp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrEmptyInput is returned by transforms that require at least one sample.
var ErrEmptyInput = errors.New("dsp: empty input")

// ErrNotPowerOfTwo is returned by the FFT entry points for a length that
// is not a power of two; zero-pad the input to NextPowerOfTwo first.
var ErrNotPowerOfTwo = errors.New("dsp: transform length is not a power of two")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two greater than or equal to
// n. It returns 1 for n <= 1.
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// FFT computes the discrete Fourier transform of x, whose length must be a
// power of two, and returns a new slice. It runs the iterative radix-2
// Cooley–Tukey algorithm over the cached per-size plan (twiddle factors,
// bit-reversal table) shared with the Scratch-based paths.
func FFT(x []complex128) ([]complex128, error) {
	out := append([]complex128(nil), x...)
	if err := transformInPlace(out, false); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x (length a
// power of two), including the 1/N normalization, and returns a new slice.
func IFFT(x []complex128) ([]complex128, error) {
	out := append([]complex128(nil), x...)
	if err := transformInPlace(out, true); err != nil {
		return nil, err
	}
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out, nil
}

// FFTReal transforms a real-valued series whose length is a power of two.
func FFTReal(x []float64) ([]complex128, error) {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	if err := transformInPlace(cx, false); err != nil {
		return nil, err
	}
	return cx, nil
}

// transformInPlace validates x's length and runs the radix-2 transform over
// it in place (unnormalized when inverse).
func transformInPlace(x []complex128, inverse bool) error {
	switch n := len(x); {
	case n == 0:
		return ErrEmptyInput
	case !IsPowerOfTwo(n):
		return fmt.Errorf("%w: n=%d", ErrNotPowerOfTwo, n)
	case n > 1:
		sharedPlanFor(n).transform(x, inverse)
	}
	return nil
}

// NaiveDFT computes the DFT by direct O(n^2) summation. It exists as a
// reference implementation for tests and as documentation of the transform
// convention used by FFT (negative exponent forward transform).
func NaiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			theta := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, theta))
		}
		out[k] = sum
	}
	return out
}
