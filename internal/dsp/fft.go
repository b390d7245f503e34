// Package dsp provides the signal-processing primitives BAYWATCH's
// periodicity detector is built on: a radix-4 fast Fourier transform,
// periodogram estimation and the permutation null's spectral maxima
// (step 1), and the autocorrelation at the few lags step 3 tests, with
// the ACF hill test itself.
//
// Every transform runs at a power-of-two length. Sect. IV of the paper
// fixes the statistic (periodogram against a permutation null, then the
// ACF), not the transform length, so a series of any length n is
// mean-centred and zero-padded to NextPowerOfTwo(n) before its spectrum is
// taken; the permutation null pads its shuffles the same way, so the
// observed spectrum and the null share one definition. No arbitrary-length
// (chirp-z) transform is needed. The autocorrelation takes no transform at
// all: it is summed directly over a series' nonzero samples (LagACFInto).
//
// The Go standard library ships no FFT, so the transform is implemented here
// from scratch. All routines are deterministic and allocation-conscious;
// the detector calls them once per communication pair per analysis window,
// which for a large enterprise means tens of millions of invocations per day.
package dsp

import "math/bits"

// NextPowerOfTwo returns the smallest power of two greater than or equal to
// n. It returns 1 for n <= 1.
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}
