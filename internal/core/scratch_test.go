package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"baywatch/internal/timeseries"
)

// TestDetectScratchReuseDeterministic is the differential test for the
// scratch-threaded detector: repeated Detect calls over the same summary —
// which reuse pooled scratch state warmed by arbitrary prior inputs — must
// return results deeply equal to the first (cold) call. Any buffer that
// leaks state between calls breaks this.
func TestDetectScratchReuseDeterministic(t *testing.T) {
	det := NewDetector(DefaultConfig())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		period := 15 + rng.Float64()*600
		ts := beaconTimestamps(rng, rng.Int63n(1<<30), period, 60+rng.Intn(100), 2, 0.05, 0.1)
		as, err := timeseries.FromTimestamps("s", "d", ts, 1)
		if err != nil {
			return true // degenerate input, nothing to compare
		}
		first, err := det.Detect(as)
		if err != nil {
			return false
		}
		// Interleave an unrelated detection so the pooled scratch is dirty
		// with different sizes and contents before the repeat run.
		other := beaconTimestamps(rng, 0, 37, 80, 1, 0, 0.3)
		if oas, oerr := timeseries.FromTimestamps("o", "o", other, 1); oerr == nil {
			if _, oerr = det.Detect(oas); oerr != nil {
				return false
			}
		}
		second, err := det.Detect(as)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(first, second)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDetectSeriesInputUnchanged guards the in-place disciplines: the
// caller's series and interval slices must come back untouched (the
// permutation shuffle must run on the scratch copy, never the input).
func TestDetectSeriesInputUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	series := make([]float64, 2048)
	for i := range series {
		if i%60 == 0 {
			series[i] = 1
		}
		series[i] += rng.Float64() * 0.1
	}
	intervals := []float64{60, 60, 61, 59, 60, 120, 60, 60}
	seriesCopy := append([]float64(nil), series...)
	intervalsCopy := append([]float64(nil), intervals...)

	det := NewDetector(DefaultConfig())
	if _, err := det.DetectSeries(series, 1, intervals); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(series, seriesCopy) {
		t.Error("DetectSeries mutated the input series")
	}
	if !reflect.DeepEqual(intervals, intervalsCopy) {
		t.Error("DetectSeries mutated the input intervals")
	}
}

// TestPermutationThresholdAllocs locks in the zero-allocation permutation
// loop: after warm-up, the m spectral passes of the threshold estimate —
// the detector's dominant cost — must not touch the heap.
func TestPermutationThresholdAllocs(t *testing.T) {
	det := NewDetector(DefaultConfig())
	series := make([]float64, 4096)
	for i := 0; i < len(series); i += 60 {
		series[i] = 1
	}
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	det.permutationThreshold(sc, series, 1, nil) // warm plans + buffers
	allocs := testing.AllocsPerRun(5, func() {
		det.permutationThreshold(sc, series, 1, nil)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op in the permutation loop, want 0", allocs)
	}
}

// TestPermutationThresholdDeterministic asserts the pooled-rng rewrite
// kept the threshold deterministic in the input (the reseeding contract).
func TestPermutationThresholdDeterministic(t *testing.T) {
	det := NewDetector(DefaultConfig())
	rng := rand.New(rand.NewSource(9))
	series := make([]float64, 1024)
	for i := range series {
		series[i] = rng.Float64()
	}
	sc1 := borrowDetectScratch()
	first := det.permutationThreshold(sc1, series, 1, nil)
	releaseDetectScratch(sc1)
	sc2 := borrowDetectScratch()
	second := det.permutationThreshold(sc2, series, 1, nil)
	releaseDetectScratch(sc2)
	if first != second {
		t.Errorf("threshold not deterministic: %g vs %g", first, second)
	}
}

// BenchmarkDetectorPermutationThreshold isolates the permutation loop, the
// cost Vlachos et al. identify as dominant (m full spectra per candidate).
func BenchmarkDetectorPermutationThreshold(b *testing.B) {
	det := NewDetector(DefaultConfig())
	series := make([]float64, 4096)
	for i := 0; i < len(series); i += 60 {
		series[i] = 1
	}
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.permutationThreshold(sc, series, 1, nil)
	}
}

// BenchmarkDetectorSeries_4096 measures one full three-step detection over
// a clean 4096-bin beacon series, the steady-state unit of pipeline work.
func BenchmarkDetectorSeries_4096(b *testing.B) {
	det := NewDetector(DefaultConfig())
	series := make([]float64, 4096)
	for i := 0; i < len(series); i += 60 {
		series[i] = 1
	}
	intervals := make([]float64, 0, 68)
	for i := 0; i < 68; i++ {
		intervals = append(intervals, 60)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectSeries(series, 1, intervals); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDetectSeriesShortInputReleasesScratch pins the release-on-every-path
// contract of the public wrappers: DetectSeries now defers the scratch
// release, so even the earliest exit (undersampled input) must reuse the
// pooled scratch instead of abandoning it. A leak would cost a full
// detectScratch (dsp plans, rng, ACF cache) per call and blow well past
// the small budget of the undersampled Result itself.
func TestDetectSeriesShortInputReleasesScratch(t *testing.T) {
	det := NewDetector(DefaultConfig())
	if res, err := det.DetectSeries([]float64{1, 0}, 1, nil); err != nil || !res.Undersampled {
		t.Fatalf("short series should be undersampled, got %+v, %v", res, err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = det.DetectSeries([]float64{1, 0}, 1, nil)
	})
	if allocs > 4 {
		t.Errorf("undersampled path costs %v allocs/op, want <= 4: detect scratch is leaking", allocs)
	}
}

// TestRebinIntoMatchesDividingLoop pins rebinInto's contiguous-group sum
// to the per-sample `out[i/factor] += v` loop it replaced: both add each
// group's samples to a zero in index order, so the results are
// bit-identical, short last group included.
func TestRebinIntoMatchesDividingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var dst []float64
	for _, n := range []int{1, 7, 64, 1000, 86400} {
		series := make([]float64, n)
		for i := range series {
			series[i] = float64(rng.Intn(3)) + rng.Float64()*1e-3
		}
		for _, factor := range []int{2, 3, 11, 32, 97} {
			want := make([]float64, (n+factor-1)/factor)
			for i, v := range series {
				want[i/factor] += v
			}
			dst = rebinInto(dst, series, factor)
			if len(dst) != len(want) {
				t.Fatalf("n=%d factor=%d: %d groups, want %d", n, factor, len(dst), len(want))
			}
			for g := range want {
				if math.Float64bits(dst[g]) != math.Float64bits(want[g]) {
					t.Fatalf("n=%d factor=%d group %d: %v, want %v", n, factor, g, dst[g], want[g])
				}
			}
		}
	}
}
