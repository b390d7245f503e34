package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputePeriodogramErrors(t *testing.T) {
	if _, err := ComputePeriodogram([]float64{1, 2}, 1); err == nil {
		t.Error("expected error for short series")
	}
	if _, err := ComputePeriodogram(make([]float64, 16), 0); err == nil {
		t.Error("expected error for zero sample interval")
	}
	if _, err := ComputePeriodogram(make([]float64, 16), -1); err == nil {
		t.Error("expected error for negative sample interval")
	}
}

func TestPeriodogramPureTone(t *testing.T) {
	// 128 samples at 1 s, cosine with period 16 s -> bin 8.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(2 * math.Pi * float64(i) / 16)
	}
	p, err := ComputePeriodogram(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	power, bin := p.MaxPower()
	if bin != 8 {
		t.Fatalf("dominant bin = %d, want 8", bin)
	}
	if power <= 0 {
		t.Fatalf("dominant power = %v, want > 0", power)
	}
	if got := p.Period(bin); math.Abs(got-16) > 1e-9 {
		t.Errorf("Period(8) = %v, want 16", got)
	}
	if got := p.Frequency(bin); math.Abs(got-1.0/16) > 1e-12 {
		t.Errorf("Frequency(8) = %v, want 1/16", got)
	}
}

func TestPeriodogramMeanRemoval(t *testing.T) {
	// A constant series has no oscillatory power anywhere.
	x := make([]float64, 64)
	for i := range x {
		x[i] = 42
	}
	p, err := ComputePeriodogram(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k, pw := range p.Power {
		if pw > 1e-12 {
			t.Errorf("bin %d power = %v, want 0 for constant series", k, pw)
		}
	}
}

func TestPeriodogramSampleIntervalScaling(t *testing.T) {
	// The same discrete series at a 60 s interval reports periods in
	// seconds scaled by 60.
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 8)
	}
	p, err := ComputePeriodogram(x, 60)
	if err != nil {
		t.Fatal(err)
	}
	_, bin := p.MaxPower()
	if got := p.Period(bin); math.Abs(got-8*60) > 1e-9 {
		t.Errorf("Period = %v, want 480", got)
	}
}

func TestPeriodBounds(t *testing.T) {
	x := make([]float64, 100)
	x[3] = 1
	p, err := ComputePeriodogram(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := p.PeriodBounds(4)
	period := p.Period(4)
	if !(lo < period && period < hi) {
		t.Errorf("PeriodBounds(4) = (%v, %v) does not bracket Period(4) = %v", lo, hi, period)
	}
	// k=1 upper bound extends to the full length of the padded grid: 100
	// samples transform at N = 128.
	_, hi1 := p.PeriodBounds(1)
	if hi1 != 128 {
		t.Errorf("PeriodBounds(1) high = %v, want 128 (the padded window)", hi1)
	}
	lo0, hi0 := p.PeriodBounds(0)
	if !math.IsInf(lo0, 1) || !math.IsInf(hi0, 1) {
		t.Errorf("PeriodBounds(0) = (%v, %v), want +Inf", lo0, hi0)
	}
}

func TestBinsAboveSortedByPower(t *testing.T) {
	n := 256
	x := make([]float64, n)
	for i := range x {
		// Two tones: period 32 (strong) and period 8 (weak).
		x[i] = 2*math.Cos(2*math.Pi*float64(i)/32) + 0.5*math.Cos(2*math.Pi*float64(i)/8)
	}
	p, err := ComputePeriodogram(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	bins := p.BinsAbove(1.0)
	if len(bins) != 2 {
		t.Fatalf("BinsAbove returned %d bins (%v), want 2", len(bins), bins)
	}
	if bins[0] != n/32 || bins[1] != n/8 {
		t.Errorf("bins = %v, want [%d %d] (strong tone first)", bins, n/32, n/8)
	}
	if p.Power[bins[0]] < p.Power[bins[1]] {
		t.Error("bins not sorted by descending power")
	}
}

func TestBinsAboveEmpty(t *testing.T) {
	x := make([]float64, 32)
	p, err := ComputePeriodogram(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bins := p.BinsAbove(0.5); len(bins) != 0 {
		t.Errorf("BinsAbove on zero series = %v, want empty", bins)
	}
}

// Property: Parseval for the padded definition. The two-sided spectrum of
// the mean-removed series zero-padded to N samples carries N times its
// energy; Power is normalised by the n real samples, so the total power
// times n/N equals the energy (one-sided accounting, bins 1..N/2-1
// mirrored).
func TestPeriodogramEnergyConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(200)
		x := make([]float64, n)
		var mean float64
		for i := range x {
			x[i] = rng.NormFloat64()
			mean += x[i]
		}
		mean /= float64(n)
		var energy float64
		for _, v := range x {
			energy += (v - mean) * (v - mean)
		}
		p, err := ComputePeriodogram(x, 1)
		if err != nil {
			return false
		}
		// Sum the full two-sided spectrum: bins 1..N-1 mirror around N/2.
		var total float64
		for k := 1; k < len(p.Power); k++ {
			total += p.Power[k]
			if k != p.N/2 {
				total += p.Power[k] // mirrored bin
			}
		}
		total *= float64(n) / float64(p.N)
		return math.Abs(total-energy) < 1e-6*(1+energy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
