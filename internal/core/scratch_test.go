package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"baywatch/internal/stats"
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
	det.permutationThreshold(sc, series, nil) // warm plans + buffers
	allocs := testing.AllocsPerRun(5, func() {
		det.permutationThreshold(sc, series, nil)
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
	first := det.permutationThreshold(sc1, series, nil)
	releaseDetectScratch(sc1)
	sc2 := borrowDetectScratch()
	second := det.permutationThreshold(sc2, series, nil)
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
		det.permutationThreshold(sc, series, nil)
	}
}

// BenchmarkDetectorPermutationThreshold_Day is the permutation loop in
// the shape batch-detection feeds it: a day decimated to 7,855 bins
// holding about 300 sparse counts.
func BenchmarkDetectorPermutationThreshold_Day(b *testing.B) {
	det := NewDetector(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 7855)
	for i := 0; i < 300; i++ {
		series[rng.Intn(len(series))] += float64(1 + rng.Intn(3))
	}
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.permutationThreshold(sc, series, nil)
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
// detectScratch (dsp plans, rng, buffers) per call and blow well past
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
// bit-identical, short last group included. Step 3's rebinning of a
// basis's nonzero bins (sparseSeries.rebin) must give the same groups.
func TestRebinIntoMatchesDividingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var dst []float64
	var basis, rebinned sparseSeries
	for _, n := range []int{1, 7, 64, 1000, 86400} {
		series := make([]float64, n)
		for i := range series {
			series[i] = float64(rng.Intn(3)) + rng.Float64()*1e-3
			if rng.Intn(4) > 0 {
				series[i] = 0 // mostly empty bins, as binned counts are
			}
		}
		basis.load(series)
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
			sparse := basis.rebin(&rebinned, factor)
			dense := make([]float64, sparse.n)
			for i, g := range sparse.idx {
				dense[g] = sparse.val[i]
			}
			if sparse.n != len(want) || !reflect.DeepEqual(dense, want) {
				t.Fatalf("n=%d factor=%d: sparse rebin differs from the dense groups", n, factor)
			}
		}
	}
}

// TestShuffleIntoMatchesRandShuffle pins the inlined Fisher–Yates walk to
// rand.Shuffle: from the same seed, the same permutation, and the same
// generator state afterwards (the next draws agree).
func TestShuffleIntoMatchesRandShuffle(t *testing.T) {
	sizes := []int{4096, 7855, 8192, 65536, 100000}
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		seed := int64(n)*7919 + 1
		got := make([]float64, n)
		want := make([]float64, n)
		for i := range got {
			got[i], want[i] = float64(i), float64(i)
		}
		rg, rw := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		shuffleInto(rg, got)
		rw.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: permutation differs from rand.Shuffle", n)
		}
		for k := 0; k < 4; k++ {
			if a, b := rg.Int63(), rw.Int63(); a != b {
				t.Fatalf("n=%d: rng state differs after the shuffle (draw %d: %d vs %d)", n, k, a, b)
			}
		}
	}
}

// denseFNV is the seed hash taken the dense way, byte by byte over every
// value of the buffer: the reference zerosFNV's run skipping must equal.
func denseFNV(xs []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range xs {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestCanonicalizeMatchesDenseSort pins the O(nonzeros) set-up of the
// permutation null to the dense one it replaced: the canonical buffer is
// slices.Sort's order, its hash the byte-wise FNV of that buffer, the
// event count countEvents', all bit for bit — over all-zero and no-zero
// series, one nonzero, zero runs of every length up to 300, negative and
// non-integer values.
func TestCanonicalizeMatchesDenseSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	series := [][]float64{
		make([]float64, 64),         // all zero
		{3, 1, 2, 1, 5, 4, 1, 1},    // no zero
		{0, 0, 0, 7, 0, 0, 0, 0, 0}, // one nonzero
		{-1.5, 0, 2.25, 0, -3, 0.1, 0, 0, 1e-300, -0.5},
	}
	for z := 0; z <= 300; z++ {
		x := make([]float64, z+2)
		x[rng.Intn(len(x))] = float64(1 + rng.Intn(4))
		x[rng.Intn(len(x))] += rng.Float64()
		series = append(series, x)
	}
	for i := 0; i < 50; i++ {
		x := make([]float64, 1+rng.Intn(2000))
		for j := range x {
			if rng.Intn(8) == 0 {
				x[j] = float64(rng.Intn(5)) + rng.NormFloat64()*float64(i%2)
			}
		}
		series = append(series, x)
	}
	sc := borrowDetectScratch()
	defer releaseDetectScratch(sc)
	for i, x := range series {
		want := append([]float64(nil), x...)
		slices.Sort(want)
		hash, events, mean := sc.canonicalize(x)
		for j := range want {
			if math.Float64bits(sc.shuffled[j]) != math.Float64bits(want[j]) {
				t.Fatalf("series %d: canonical buffer %v, want %v", i, sc.shuffled, want)
			}
		}
		if h := denseFNV(want); hash != h {
			t.Fatalf("series %d: hash %#x, dense FNV %#x", i, hash, h)
		}
		if events != countEvents(x) {
			t.Fatalf("series %d: %d events, want %d", i, events, countEvents(x))
		}
		var sum float64
		for _, v := range want {
			sum += v
		}
		if m := sum / float64(len(x)); math.Abs(mean-m) > 1e-12*math.Abs(m) {
			t.Fatalf("series %d: mean %g, want %g", i, mean, m)
		}
	}
}

// TestDetectSeriesAllocs pins the steady-state detector to allocating only
// its Result: the Result, its candidate list (one allocation for all of
// them), its one kept candidate, and the interval GMM selection it
// carries — nothing for the permutation null, the nonzero bins of either
// basis, rebinning or the ACF lags. It runs DetectSeries' body over one
// held scratch. The pair is a day of 30 s beacons at 1 s: 86,400 bins
// decimate by 11, so the 30 s candidate (below four decimated bins)
// verifies on the undecimated basis.
func TestDetectSeriesAllocs(t *testing.T) {
	series := make([]float64, 86400)
	var intervals []float64
	for i := 0; i < len(series); i += 30 {
		series[i] = 1
		if i > 0 {
			intervals = append(intervals, 30)
		}
	}
	det := NewDetector(DefaultConfig())
	cfg := det.Config()
	res, err := det.DetectSeries(series, 1, intervals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept) != 1 || math.Abs(res.Kept[0].BestPeriod()-30) > 0.5 || res.Kept[0].Period >= 4*11 {
		t.Fatalf("want one verified ~30 s candidate (fine basis), got %+v", res.Kept)
	}
	sc := borrowDetectScratch() // held, not pooled: the race detector drops pooled items
	defer releaseDetectScratch(sc)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := det.detectSeries(sc, series, 1, intervals, nil); err != nil {
			t.Fatal(err)
		}
	})
	sample := subsampleInto(nil, appendNonzero(nil, intervals), cfg.GMMMaxIntervalSample)
	gmmAllocs := testing.AllocsPerRun(5, func() {
		sel, err := stats.FitBestGMM(sample, cfg.GMMMaxComponents, stats.GMMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sel.Best.DominantComponents(cfg.GMMMinWeight)
	})
	if want := 3 + gmmAllocs; allocs != want {
		t.Errorf("%v allocs/op, want %v: the Result, its candidate and kept lists and %v for the GMM selection", allocs, want, gmmAllocs)
	}
}
