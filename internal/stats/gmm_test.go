package stats

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestFitGMMErrors(t *testing.T) {
	if _, err := FitGMM([]float64{1, 2}, 0, GMMConfig{}); err == nil {
		t.Error("expected error for k = 0")
	}
	if _, err := FitGMM([]float64{1, 2}, 3, GMMConfig{}); err == nil {
		t.Error("expected error for k > n")
	}
	if _, err := FitBestGMM(nil, 3, GMMConfig{}); err == nil {
		t.Error("expected error for empty data")
	}
}

func TestFitGMMSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = 100 + rng.NormFloat64()*5
	}
	g, err := FitGMM(xs, 1, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(g.Weights[0], 1, 1e-9) {
		t.Errorf("weight = %v, want 1", g.Weights[0])
	}
	if math.Abs(g.Means[0]-100) > 1 {
		t.Errorf("mean = %v, want ~100", g.Means[0])
	}
	if math.Abs(g.StdDevs[0]-5) > 1 {
		t.Errorf("sd = %v, want ~5", g.StdDevs[0])
	}
}

func TestFitGMMTwoWellSeparatedComponents(t *testing.T) {
	// Conficker-like interval mixture: fast beacons ~7.5 s (many) and long
	// sleeps ~10800 s (few). Fig. 7 of the paper shows GMM recovering the
	// component means.
	rng := rand.New(rand.NewSource(2))
	var xs []float64
	for i := 0; i < 900; i++ {
		xs = append(xs, 7.5+rng.NormFloat64()*0.5)
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, 10800+rng.NormFloat64()*60)
	}
	g, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	means := append([]float64(nil), g.Means...)
	sort.Float64s(means)
	if math.Abs(means[0]-7.5) > 1 {
		t.Errorf("fast component mean = %v, want ~7.5", means[0])
	}
	if math.Abs(means[1]-10800) > 200 {
		t.Errorf("slow component mean = %v, want ~10800", means[1])
	}
	// Weight ordering: the fast component holds ~90% of the mass.
	var fastW float64
	for j := range g.Means {
		if math.Abs(g.Means[j]-means[0]) < 1 {
			fastW = g.Weights[j]
		}
	}
	if math.Abs(fastW-0.9) > 0.05 {
		t.Errorf("fast component weight = %v, want ~0.9", fastW)
	}
}

func TestFitBestGMMSelectsCorrectOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))

	// Unimodal data: BIC must select k = 1.
	uni := make([]float64, 400)
	for i := range uni {
		uni[i] = 50 + rng.NormFloat64()*3
	}
	sel, err := FitBestGMM(uni, 4, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Errorf("unimodal: selected k = %d, want 1 (BICs %v)", sel.K, sel.BICs)
	}

	// Bimodal data: BIC must select k = 2.
	var bi []float64
	for i := 0; i < 300; i++ {
		bi = append(bi, 10+rng.NormFloat64())
	}
	for i := 0; i < 300; i++ {
		bi = append(bi, 200+rng.NormFloat64()*5)
	}
	sel, err = FitBestGMM(bi, 4, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Errorf("bimodal: selected k = %d, want 2 (BICs %v)", sel.K, sel.BICs)
	}
	if len(sel.BICs) != 4 {
		t.Errorf("len(BICs) = %d, want 4", len(sel.BICs))
	}
}

func TestFitGMMDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 100
	}
	g1, err := FitGMM(xs, 3, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FitGMM(xs, 3, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range g1.Means {
		if g1.Means[j] != g2.Means[j] || g1.Weights[j] != g2.Weights[j] || g1.StdDevs[j] != g2.StdDevs[j] {
			t.Fatalf("non-deterministic fit: %+v vs %+v", g1, g2)
		}
	}
}

func TestFitGMMDuplicatedPoints(t *testing.T) {
	// All-identical observations must not produce NaNs (variance floor).
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = 42
	}
	g, err := FitGMM(xs, 2, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range g.Means {
		if math.IsNaN(g.Means[j]) || math.IsNaN(g.StdDevs[j]) || g.StdDevs[j] <= 0 {
			t.Fatalf("degenerate component %d: %+v", j, g)
		}
	}
	if math.IsNaN(g.BIC) || math.IsInf(g.BIC, 0) {
		t.Errorf("BIC = %v", g.BIC)
	}
}

func TestGMMWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	for k := 1; k <= 4; k++ {
		g, err := FitGMM(xs, k, GMMConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range g.Weights {
			sum += w
		}
		if !almostEqual(sum, 1, 1e-6) {
			t.Errorf("k=%d: weights sum to %v", k, sum)
		}
	}
}

func TestDominantComponents(t *testing.T) {
	g := &GMM{
		Weights: []float64{0.46, 0.53, 0.01},
		Means:   []float64{175.12, 4.51, 82},
		StdDevs: []float64{1, 1, 1},
	}
	doms := g.DominantComponents(0.05)
	if len(doms) != 2 {
		t.Fatalf("dominant components = %v, want 2", doms)
	}
	if doms[0] != 4.51 || doms[1] != 175.12 {
		t.Errorf("doms = %v, want [4.51 175.12] (weight-ordered)", doms)
	}
	if all := g.DominantComponents(0); len(all) != 3 {
		t.Errorf("minWeight 0 should return all components, got %v", all)
	}
}

func TestFitBestGMMClampsK(t *testing.T) {
	xs := []float64{1, 2, 3}
	sel, err := FitBestGMM(xs, 10, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.BICs) != 3 {
		t.Errorf("BICs length = %d, want clamped to 3", len(sel.BICs))
	}
	sel, err = FitBestGMM(xs, 0, GMMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Errorf("maxK=0 should clamp to 1, got k=%d", sel.K)
	}
}

// fitGMMReference is FitGMM as it stood before the E-step was cut to its
// arithmetic floor and EM moved to distinct values: a LogNormalPDF (two
// logs) per point×component, two exps per term, one log per point, and
// fresh k×n responsibility rows per fit. TestFitGMMMatchesReference holds
// the production fit to it.
func fitGMMReference(xs []float64, k int, cfg GMMConfig) (*GMM, error) {
	n := len(xs)
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadComponentCount, k, n)
	}
	cfg = cfg.withDefaults(xs)

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)

	g := &GMM{
		Weights: make([]float64, k),
		Means:   make([]float64, k),
		StdDevs: make([]float64, k),
	}
	for j := 0; j < k; j++ {
		lo := j * n / k
		hi := (j + 1) * n / k
		if hi <= lo {
			hi = lo + 1
		}
		seg := sorted[lo:hi]
		g.Weights[j] = float64(len(seg)) / float64(n)
		g.Means[j] = Mean(seg)
		sd := StdDev(seg)
		if sd < cfg.MinStdDev {
			sd = cfg.MinStdDev
		}
		g.StdDevs[j] = sd
	}

	resp := make([][]float64, k)
	for j := range resp {
		resp[j] = make([]float64, n)
	}
	logW := make([]float64, k)

	prevLL := math.Inf(-1)
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		g.Iterations = iter
		for j := 0; j < k; j++ {
			logW[j] = math.Log(math.Max(g.Weights[j], 1e-300))
		}
		// E-step with log-sum-exp for numerical stability.
		var ll float64
		for i, x := range xs {
			maxLp := math.Inf(-1)
			for j := 0; j < k; j++ {
				lp := logW[j] + LogNormalPDF(x, g.Means[j], g.StdDevs[j])
				resp[j][i] = lp
				if lp > maxLp {
					maxLp = lp
				}
			}
			var sum float64
			for j := 0; j < k; j++ {
				sum += math.Exp(resp[j][i] - maxLp)
			}
			logSum := maxLp + math.Log(sum)
			ll += logSum
			for j := 0; j < k; j++ {
				resp[j][i] = math.Exp(resp[j][i] - logSum)
			}
		}
		g.LogLikelihood = ll

		// M-step.
		for j := 0; j < k; j++ {
			var nj, mu float64
			for i, x := range xs {
				nj += resp[j][i]
				mu += resp[j][i] * x
			}
			if nj < 1e-10 {
				g.Weights[j] = 1e-6
				g.Means[j] = sorted[n-1]
				g.StdDevs[j] = cfg.MinStdDev
				continue
			}
			mu /= nj
			var va float64
			for i, x := range xs {
				d := x - mu
				va += resp[j][i] * d * d
			}
			va /= nj
			g.Weights[j] = nj / float64(n)
			g.Means[j] = mu
			sd := math.Sqrt(va)
			if sd < cfg.MinStdDev {
				sd = cfg.MinStdDev
			}
			g.StdDevs[j] = sd
		}

		if ll-prevLL < cfg.Tolerance*float64(n) && iter > 1 {
			break
		}
		prevLL = ll
	}

	p := float64(3*k - 1)
	g.BIC = -2*g.LogLikelihood + p*math.Log(float64(n))
	return g, nil
}

// gmmSweep builds the seeded inputs TestFitGMMMatchesReference runs:
// 1–3 component mixtures at sizes from 8 to 2048 points (periods of
// seconds to hours, tight and loose), heavily duplicated integer
// intervals (beacons, missed beacons, Poisson arrivals — the samples EM
// collapses to a few dozen distinct values), all-identical points, and a
// far outlier cluster too small to keep its component alive.
func gmmSweep() map[string][]float64 {
	cases := map[string][]float64{}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{8, 13, 64, 257, 1000, 2048} {
		for comps := 1; comps <= 3; comps++ {
			xs := make([]float64, n)
			for i := range xs {
				c := i % comps
				mean := []float64{60, 300, 3600}[c] * (1 + 0.2*rng.Float64())
				xs[i] = mean + rng.NormFloat64()*mean*[]float64{0.01, 0.05, 0.2}[(i+c)%3]
			}
			cases[fmt.Sprintf("mixture/k=%d/n=%d", comps, n)] = xs
		}
		dup := make([]float64, n)
		for i := range dup {
			dup[i] = float64(59 + rng.Intn(3)) // 59, 60, 61 s: binned beacon intervals
		}
		cases[fmt.Sprintf("duplicated/n=%d", n)] = dup
		// Whole-second intervals as a pair's summary yields them: a 300 s
		// beacon jittered by up to ±3 s, the same with one beacon in six
		// missed (a 600 s interval), and Poisson arrivals at a 60 s mean.
		beacon := make([]float64, n)
		missed := make([]float64, n)
		poisson := make([]float64, n)
		for i := range beacon {
			beacon[i] = float64(297 + rng.Intn(7))
			missed[i] = beacon[i]
			if rng.Intn(6) == 0 {
				missed[i] = float64(597 + rng.Intn(7))
			}
			poisson[i] = math.Max(1, math.Round(rng.ExpFloat64()*60))
		}
		cases[fmt.Sprintf("beacon-300±3/n=%d", n)] = beacon
		cases[fmt.Sprintf("beacon-missed-600/n=%d", n)] = missed
		cases[fmt.Sprintf("poisson-integer/n=%d", n)] = poisson
	}
	same := make([]float64, 50)
	for i := range same {
		same[i] = 42
	}
	cases["identical"] = same
	outlier := make([]float64, 0, 500)
	for i := 0; i < 499; i++ {
		outlier = append(outlier, 30+rng.NormFloat64())
	}
	cases["outlier"] = append(outlier, 1e7)
	// Two values and three components: the middle component's
	// responsibilities vanish and the M-step re-seeds it (weight 1e-6).
	cases["dead-component"] = []float64{62, 62, 62, 60, 60, 62, 62, 62, 60, 60}
	return cases
}

// TestFitGMMMatchesReference holds the floor-arithmetic E-step over
// distinct values to the per-point reference: for every sweep input and
// every k, weights, means, σ and BIC agree within 1e-9 relative, and
// FitBestGMM selects the K the reference fits would.
func TestFitGMMMatchesReference(t *testing.T) {
	const rel = 1e-9
	near := func(a, b float64) bool {
		return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
	}
	for name, xs := range gmmSweep() {
		maxK := 3
		if maxK > len(xs) {
			maxK = len(xs)
		}
		sel, err := FitBestGMM(xs, maxK, GMMConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var wantK int
		wantBIC := math.Inf(1)
		for k := 1; k <= maxK; k++ {
			want, err := fitGMMReference(xs, k, GMMConfig{})
			if err != nil {
				t.Fatalf("%s k=%d: reference: %v", name, k, err)
			}
			got, err := FitGMM(xs, k, GMMConfig{})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			if !near(got.BIC, want.BIC) || got.BIC != sel.BICs[k-1] {
				t.Errorf("%s k=%d: BIC %v (FitBestGMM %v), reference %v", name, k, got.BIC, sel.BICs[k-1], want.BIC)
			}
			for j := 0; j < k; j++ {
				if !near(got.Weights[j], want.Weights[j]) || !near(got.Means[j], want.Means[j]) || !near(got.StdDevs[j], want.StdDevs[j]) {
					t.Errorf("%s k=%d component %d: (w, μ, σ) = (%v, %v, %v), reference (%v, %v, %v)", name, k, j,
						got.Weights[j], got.Means[j], got.StdDevs[j], want.Weights[j], want.Means[j], want.StdDevs[j])
				}
			}
			if want.BIC < wantBIC {
				wantBIC, wantK = want.BIC, k
			}
		}
		if sel.K != wantK {
			t.Errorf("%s: FitBestGMM selected K=%d, reference fits select %d", name, sel.K, wantK)
		}
	}
	if g, _ := FitGMM(gmmSweep()["dead-component"], 3, GMMConfig{}); slices.Min(g.Weights) > 1e-5 {
		t.Errorf("dead-component case no longer kills a component: weights %v", g.Weights)
	}
}

func BenchmarkFitGMM_1000x3(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 1000)
	for i := range xs {
		switch i % 3 {
		case 0:
			xs[i] = 10 + rng.NormFloat64()
		case 1:
			xs[i] = 60 + rng.NormFloat64()*2
		default:
			xs[i] = 300 + rng.NormFloat64()*10
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitGMM(xs, 3, GMMConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
