package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"baywatch/internal/timeseries"
)

// beaconTimestamps produces timestamps of a beacon with the given period,
// Gaussian jitter sigma, missing-event probability, and added-noise
// probability, starting at t0.
func beaconTimestamps(rng *rand.Rand, t0 int64, period float64, n int, sigma, pMiss, pAdd float64) []int64 {
	var out []int64
	t := float64(t0)
	for i := 0; i < n; i++ {
		jittered := t + rng.NormFloat64()*sigma
		if rng.Float64() >= pMiss {
			out = append(out, int64(math.Round(jittered)))
		}
		if rng.Float64() < pAdd {
			out = append(out, int64(math.Round(t+rng.Float64()*period)))
		}
		t += period
	}
	if len(out) == 0 {
		out = append(out, t0)
	}
	return out
}

func detect(t *testing.T, ts []int64, scale int64) *Result {
	t.Helper()
	as, err := timeseries.FromTimestamps("src", "dst", ts, scale)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewDetector(DefaultConfig()).Detect(as)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hasPeriodNear(res *Result, want, relTol float64) bool {
	for _, p := range res.DominantPeriods() {
		if math.Abs(p-want) <= relTol*want {
			return true
		}
	}
	return false
}

func TestDetectCleanBeacon(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ts := beaconTimestamps(rng, 1000, 60, 200, 0, 0, 0)
	res := detect(t, ts, 1)
	if !res.Periodic {
		t.Fatalf("clean 60 s beacon not detected: %+v", res)
	}
	if !hasPeriodNear(res, 60, 0.05) {
		t.Errorf("periods %v, want one near 60", res.DominantPeriods())
	}
	if res.Score() <= 0.3 {
		t.Errorf("score = %v, want strong (> 0.3)", res.Score())
	}
}

// TestDetectDecimatedDay is the regression for the zero-padded spectrum:
// an 86,400-bin day of 300 s beacons (jittered ±2 s) decimates by 11 to
// 7,855 bins — not a power of two, so its spectra are taken on the padded
// 8,192-point grid — and the periodogram must still report the beacon at
// 300 s within one bin spacing of the analysed series, P²/(n·Δt) ≈ 1.04 s.
// Batch detection of the same summary stays bit-identical.
func TestDetectDecimatedDay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := []int64{0}
	for i := 1; i < 288; i++ {
		ts = append(ts, int64(300*i)+rng.Int63n(5)-2)
	}
	ts = append(ts, 86399)
	as, err := timeseries.FromTimestamps("src", "dst", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	det := NewDetector(DefaultConfig())
	bucket := det.BucketOf(as)
	if bucket.SeriesLen != 7855 {
		t.Fatalf("analysed length %d, want 7855 (86,400 bins decimated by 11)", bucket.SeriesLen)
	}
	res, err := det.Detect(as)
	if err != nil {
		t.Fatal(err)
	}
	if res.SeriesLen != 86400 || !res.Periodic {
		t.Fatalf("SeriesLen %d periodic %v, want a periodic 86400-bin result: %+v", res.SeriesLen, res.Periodic, res)
	}
	spacing := 300.0 * 300 / (float64(bucket.SeriesLen) * 11)
	if top := res.Kept[0]; top.Origin != OriginPeriodogram || math.Abs(top.BestPeriod()-300) > spacing {
		t.Errorf("strongest kept candidate %+v, want a periodogram period within %.2f s of 300 s", top, spacing)
	}
	batch := det.DetectBatch([]*timeseries.ActivitySummary{as}, nil)
	if batch[0].Err != nil || !reflect.DeepEqual(batch[0].Result, res) {
		t.Errorf("DetectBatch diverges from Detect: %+v vs %+v", batch[0].Result, res)
	}
}

func TestDetectJitteredBeacon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ts := beaconTimestamps(rng, 0, 60, 300, 5, 0, 0)
	res := detect(t, ts, 1)
	if !res.Periodic {
		t.Fatal("jittered beacon (sigma=5) not detected")
	}
	if !hasPeriodNear(res, 60, 0.1) {
		t.Errorf("periods %v, want one near 60", res.DominantPeriods())
	}
}

func TestDetectBeaconWithMissingEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ts := beaconTimestamps(rng, 0, 60, 400, 2, 0.3, 0)
	res := detect(t, ts, 1)
	if !res.Periodic {
		t.Fatal("beacon with 30% missing events not detected")
	}
	if !hasPeriodNear(res, 60, 0.1) {
		t.Errorf("periods %v, want one near 60", res.DominantPeriods())
	}
}

func TestDetectBeaconWithAddedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ts := beaconTimestamps(rng, 0, 60, 400, 2, 0, 0.3)
	res := detect(t, ts, 1)
	if !res.Periodic {
		t.Fatal("beacon with 30% added noise not detected")
	}
	if !hasPeriodNear(res, 60, 0.1) {
		t.Errorf("periods %v, want one near 60", res.DominantPeriods())
	}
}

func TestDetectRejectsPoissonTraffic(t *testing.T) {
	// Memoryless arrivals must not be flagged periodic (low FP rate).
	falsePositives := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var ts []int64
		tcur := 0.0
		for i := 0; i < 300; i++ {
			tcur += rng.ExpFloat64() * 60
			ts = append(ts, int64(tcur))
		}
		res := detect(t, ts, 1)
		if res.Periodic {
			falsePositives++
		}
	}
	if falsePositives > 3 {
		t.Errorf("Poisson traffic flagged periodic in %d/%d trials", falsePositives, trials)
	}
}

func TestDetectRejectsBurstyBrowsing(t *testing.T) {
	// Human-like browsing: bursts of requests then long random pauses.
	rng := rand.New(rand.NewSource(7))
	var ts []int64
	tcur := 0.0
	for session := 0; session < 30; session++ {
		burst := 3 + rng.Intn(15)
		for i := 0; i < burst; i++ {
			tcur += rng.Float64() * 4
			ts = append(ts, int64(tcur))
		}
		tcur += 300 + rng.ExpFloat64()*3000
	}
	res := detect(t, ts, 1)
	if res.Periodic {
		t.Errorf("bursty browsing flagged periodic: periods %v", res.DominantPeriods())
	}
}

func TestDetectUndersampled(t *testing.T) {
	res := detect(t, []int64{0, 60, 120}, 1)
	if !res.Undersampled {
		t.Error("3 events should be undersampled")
	}
	if res.Periodic {
		t.Error("undersampled series must not be periodic")
	}
	if res.Score() != 0 {
		t.Errorf("score = %v, want 0", res.Score())
	}
}

func TestDetectNilSummary(t *testing.T) {
	if _, err := NewDetector(DefaultConfig()).Detect(nil); err == nil {
		t.Error("expected error for nil summary")
	}
}

func TestDetectHighFrequencyPruning(t *testing.T) {
	// TDSS-style (Fig. 6): true period ~387 s, min interval 196 s. Any
	// candidate below 196 s must be pruned as high-frequency noise.
	rng := rand.New(rand.NewSource(8))
	ts := beaconTimestamps(rng, 0, 387, 150, 20, 0.1, 0.05)
	as, err := timeseries.FromTimestamps("src", "dst", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewDetector(DefaultConfig()).Detect(as)
	if err != nil {
		t.Fatal(err)
	}
	minIv := math.Inf(1)
	for _, iv := range as.IntervalsSeconds() {
		if iv > 0 && iv < minIv {
			minIv = iv
		}
	}
	for _, c := range res.Kept {
		if c.BestPeriod() < minIv {
			t.Errorf("kept period %v below min interval %v", c.BestPeriod(), minIv)
		}
	}
	if !res.Periodic || !hasPeriodNear(res, 387, 0.1) {
		t.Errorf("TDSS-like beacon: periodic=%v periods=%v, want ~387", res.Periodic, res.DominantPeriods())
	}
}

func TestDetectMultiPeriodConficker(t *testing.T) {
	// Conficker-style: beacons every ~7 s for 2 minutes, then ~1 h sleep,
	// repeated. The GMM pruning path must surface the fast period.
	rng := rand.New(rand.NewSource(9))
	var ts []int64
	tcur := 0.0
	for cycle := 0; cycle < 12; cycle++ {
		for i := 0; i < 17; i++ {
			ts = append(ts, int64(tcur))
			tcur += 7 + rng.NormFloat64()*0.3
		}
		tcur += 3600
	}
	as, err := timeseries.FromTimestamps("src", "dst", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewDetector(DefaultConfig()).Detect(as)
	if err != nil {
		t.Fatal(err)
	}
	if res.GMM == nil || res.GMM.K < 2 {
		t.Fatalf("GMM did not expose multi-modal intervals: %+v", res.GMM)
	}
	found := false
	for _, m := range res.GMM.Best.Means {
		if math.Abs(m-7) < 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("GMM means %v, want one near 7", res.GMM.Best.Means)
	}
	if !res.Periodic {
		t.Error("Conficker-like trace not flagged periodic")
	}
}

func TestDetectDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ts := beaconTimestamps(rng, 0, 120, 200, 10, 0.2, 0.1)
	r1 := detect(t, ts, 1)
	r2 := detect(t, ts, 1)
	if r1.Periodic != r2.Periodic || r1.PowerThreshold != r2.PowerThreshold {
		t.Fatal("detection is not deterministic")
	}
	if len(r1.Kept) != len(r2.Kept) {
		t.Fatalf("kept counts differ: %d vs %d", len(r1.Kept), len(r2.Kept))
	}
	for i := range r1.Kept {
		if r1.Kept[i] != r2.Kept[i] {
			t.Fatalf("kept[%d] differs: %+v vs %+v", i, r1.Kept[i], r2.Kept[i])
		}
	}
}

func TestDetectCoarseScale(t *testing.T) {
	// A 1-hour beacon observed over two weeks at 60 s bins.
	rng := rand.New(rand.NewSource(11))
	ts := beaconTimestamps(rng, 0, 3600, 336, 60, 0.05, 0)
	res := detect(t, ts, 60)
	if !res.Periodic {
		t.Fatal("hourly beacon at minute scale not detected")
	}
	if !hasPeriodNear(res, 3600, 0.1) {
		t.Errorf("periods %v, want one near 3600", res.DominantPeriods())
	}
}

func TestDetectRejectedCandidatesRecorded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ts := beaconTimestamps(rng, 0, 60, 300, 3, 0.1, 0.2)
	res := detect(t, ts, 1)
	if len(res.Candidates) < len(res.Kept) {
		t.Error("Candidates must include rejected entries")
	}
	for _, c := range res.Kept {
		if c.Reason != RejectNone {
			t.Errorf("kept candidate has reason %v", c.Reason)
		}
	}
}

func TestConfigSanitization(t *testing.T) {
	d := NewDetector(Config{})
	cfg := d.Config()
	def := DefaultConfig()
	if cfg != def {
		t.Errorf("sanitized zero config = %+v, want defaults %+v", cfg, def)
	}
	// Out-of-range values replaced.
	d = NewDetector(Config{Confidence: 2, Alpha: -1, MinEvents: 1})
	cfg = d.Config()
	if cfg.Confidence != def.Confidence || cfg.Alpha != def.Alpha || cfg.MinEvents != def.MinEvents {
		t.Errorf("sanitized config = %+v", cfg)
	}
	// Valid custom values preserved.
	custom := def
	custom.Permutations = 50
	if got := NewDetector(custom).Config().Permutations; got != 50 {
		t.Errorf("Permutations = %d, want 50", got)
	}
}

func TestOriginAndReasonStrings(t *testing.T) {
	if OriginPeriodogram.String() != "periodogram" || OriginGMM.String() != "gmm" {
		t.Error("origin strings wrong")
	}
	if Origin(99).String() == "" {
		t.Error("unknown origin should stringify")
	}
	for r := RejectNone; r <= RejectDuplicate; r++ {
		if r.String() == "" {
			t.Errorf("reason %d has empty string", r)
		}
	}
	if RejectReason(99).String() == "" {
		t.Error("unknown reason should stringify")
	}
}

func TestCandidateBestPeriod(t *testing.T) {
	c := Candidate{Period: 60}
	if c.BestPeriod() != 60 {
		t.Error("BestPeriod should fall back to Period")
	}
	c.RefinedPeriod = 61
	if c.BestPeriod() != 61 {
		t.Error("BestPeriod should prefer RefinedPeriod")
	}
}

func TestScoreBounds(t *testing.T) {
	r := &Result{Periodic: true, Kept: []Candidate{{ACFScore: 1.5}}}
	if got := r.Score(); got != 1 {
		t.Errorf("score clamps to 1, got %v", got)
	}
	r = &Result{Periodic: true, Kept: []Candidate{{ACFScore: -0.2}}}
	if got := r.Score(); got != 0 {
		t.Errorf("negative ACF clamps to 0, got %v", got)
	}
	r = &Result{}
	if r.Score() != 0 {
		t.Error("non-periodic score must be 0")
	}
}

func TestDetectSeriesDirect(t *testing.T) {
	// Binary presence series with period 10 bins at 5 s bins = 50 s.
	series := make([]float64, 500)
	for i := 0; i < 500; i += 10 {
		series[i] = 1
	}
	intervals := make([]float64, 49)
	for i := range intervals {
		intervals[i] = 50
	}
	res, err := NewDetector(DefaultConfig()).DetectSeries(series, 5, intervals)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Periodic || !hasPeriodNear(res, 50, 0.05) {
		t.Errorf("periodic=%v periods=%v, want ~50", res.Periodic, res.DominantPeriods())
	}
}

func TestDetectSeriesNilIntervals(t *testing.T) {
	series := make([]float64, 200)
	for i := 0; i < 200; i += 8 {
		series[i] = 1
	}
	res, err := NewDetector(DefaultConfig()).DetectSeries(series, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without an interval list the pruning statistics degrade gracefully;
	// the series must still be analyzable.
	if res.Undersampled {
		t.Error("series with 25 events must not be undersampled")
	}
}

func TestDetectConstantSeries(t *testing.T) {
	// Every bin occupied: zero-variance series, nothing to detect.
	series := make([]float64, 64)
	for i := range series {
		series[i] = 1
	}
	res, err := NewDetector(DefaultConfig()).DetectSeries(series, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Periodic {
		t.Error("constant series flagged periodic")
	}
}

func BenchmarkDetectTypicalPair(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	ts := beaconTimestamps(rng, 0, 60, 300, 5, 0.1, 0.1)
	as, err := timeseries.FromTimestamps("s", "d", ts, 1)
	if err != nil {
		b.Fatal(err)
	}
	det := NewDetector(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(as); err != nil {
			b.Fatal(err)
		}
	}
}
