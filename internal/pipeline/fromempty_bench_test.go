package pipeline

import (
	"context"
	"testing"
	"time"

	"baywatch/internal/corpus"
	"baywatch/internal/langmodel"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
	"baywatch/internal/whitelist"
)

// scanShape builds the population of the repository benchmark's
// batch-scan workload (bench/workloads.go: 1500 hosts x 2 weekdays, the
// update services written out as campaigns, the whole catalog
// whitelisted, one planted infection) as extracted summaries. It is the
// shape on which a from-empty tick has the most bookkeeping per unit of
// detection, i.e. where the analysis core's bulk load shows.
func scanShape(tb testing.TB) ([]*timeseries.ActivitySummary, Config) {
	tb.Helper()
	gen := synthetic.DefaultConfig()
	gen.Seed = 7
	gen.Start = synthetic.Midnight(2015, time.March, 2)
	gen.Days = 2
	gen.Hosts = 1500
	catalog := corpus.PopularDomains(gen.CatalogSize, gen.Seed+1)
	periods := []float64{900, 1800, 3600, 7200, 14400, 86400}
	for i := 0; i < gen.UpdateServices; i++ {
		p := periods[i%len(periods)]
		gen.Infections = append(gen.Infections, synthetic.Infection{
			Family: "update", Domain: catalog[10+i], Clients: gen.Hosts / 2, Period: p,
			Noise: synthetic.NoiseConfig{JitterSigma: p * 0.01, MissProb: 0.02},
		})
	}
	gen.UpdateServices, gen.NicheServices = 0, 0
	gen.Infections = append(gen.Infections, synthetic.Infection{
		Family: "Campaign1", DGA: corpus.DGAStyle(1), Clients: 1, Period: 30,
		Noise: synthetic.NoiseConfig{JitterSigma: 3, MissProb: 0.05, AddProb: 0.05},
	})
	tr, err := synthetic.Generate(gen)
	if err != nil {
		tb.Fatal(err)
	}
	lm, err := langmodel.Train(corpus.PopularDomains(5000, 42))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{Global: whitelist.NewGlobal(tr.Catalog), LM: lm}
	sums, _, err := ExtractSummaries(context.Background(), RecordEvents(tr.Records, nil), 1, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return sums, cfg
}

func benchFromEmpty(b *testing.B, sums []*timeseries.ActivitySummary, cfg Config) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSummaries(context.Background(), sums, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Pairs != len(sums) {
			b.Fatalf("pairs = %d, want %d", res.Stats.Pairs, len(sums))
		}
	}
}

// BenchmarkRunSummariesScanShape is one tick from empty over the
// batch-scan population: ~57k pairs, one of which reaches detection (a
// 2^18-point series, about two thirds of the wall). DESIGN.md §5k
// records it against the separate batch back half it replaced.
func BenchmarkRunSummariesScanShape(b *testing.B) {
	sums, cfg := scanShape(b)
	benchFromEmpty(b, sums, cfg)
}

// BenchmarkRunSummariesScanShapeNoDetect drops the planted pair, leaving
// only whitelisted pairs: the bulk load's bookkeeping by itself.
func BenchmarkRunSummariesScanShapeNoDetect(b *testing.B) {
	sums, cfg := scanShape(b)
	kept := sums[:0:0]
	for _, as := range sums {
		if cfg.Global.Contains(as.Destination) {
			kept = append(kept, as)
		}
	}
	benchFromEmpty(b, kept, cfg)
}
