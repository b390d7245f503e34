// Benchmarks for the sharded streaming ingest, including the sequential
// batch baseline it is gated against (cmd/benchgate): the acceptance bar
// is BenchmarkIngestToSummaries sustaining a multiple of
// BenchmarkBatchToSummaries' record throughput with ≤2 allocs/record in
// the steady state (warm symbol table).
package ingest_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"baywatch/internal/corpus"
	"baywatch/internal/ingest"
	"baywatch/internal/langmodel"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

// benchCorpus writes a deterministic multi-pair proxy log and returns its
// path and record count. 48 pairs × 64 events keeps one benchmark
// iteration in the low milliseconds while still exercising interning,
// partitioning and summary building across many runs.
func benchCorpus(tb testing.TB) (string, int) {
	tb.Helper()
	dir := tb.TempDir()
	path := filepath.Join(dir, "bench.log")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for i := 0; i < 64; i++ {
		for p := 0; p < 48; p++ {
			r := proxylog.Record{
				Timestamp: int64(1425300000 + i*97 + p), // distinct per pair
				ClientIP:  fmt.Sprintf("10.8.%d.%d", p/16, p%16),
				Method:    "GET", Scheme: "http",
				Host:   fmt.Sprintf("svc-%02d.example.com", p%24),
				Path:   fmt.Sprintf("/api/v1/poll?id=%d", p%6),
				Status: 200, BytesOut: 512, BytesIn: 128,
				UserAgent: "agent/1.0 (bench)",
			}
			fmt.Fprintln(f, r.Format())
			n++
		}
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, n
}

// BenchmarkIngestParse is the scan layer alone: split the corpus four
// ways and stream every line through the zero-copy parser with a no-op
// handler. The allocs/op it reports is the parse loop's entire footprint.
func BenchmarkIngestParse(b *testing.B) {
	path, n := benchCorpus(b)
	shards, err := ingest.PlanShards([]string{path}, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records := 0
		for _, sp := range shards {
			stats, err := proxylog.ForEachSplit(sp, 0, func(v *proxylog.RecordView) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			records += stats.Records
		}
		if records != n {
			b.Fatalf("scanned %d records, want %d", records, n)
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkIngestToSummaries is the tentpole number: the full sharded
// ingest (4 shards, 4 workers) from bytes on disk to sorted activity
// summaries, with a warm symbol table modelling the ops loop's
// steady state. Compare with BenchmarkBatchToSummaries.
func BenchmarkIngestToSummaries(b *testing.B) {
	path, n := benchCorpus(b)
	shards, err := ingest.PlanShards([]string{path}, 4)
	if err != nil {
		b.Fatal(err)
	}
	syms := ingest.NewSymbolTable()
	ctx := context.Background()
	cfg := ingest.Config{Workers: 4, MaxBadLines: 0, Symbols: syms}
	// Warm run: intern the corpus's symbols once, as the ops loop does.
	if _, err := ingest.Ingest(ctx, shards, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ingest.Ingest(ctx, shards, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Records != n {
			b.Fatalf("ingested %d records, want %d", res.Stats.Records, n)
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

// BenchmarkBatchToSummaries is the record-slice route to the same
// summaries: materialize every record (proxylog.ReadAll), convert to pair
// events, and extract through the event adapter. Against
// IngestToSummaries it prices record materialization, not a second
// aggregator.
func BenchmarkBatchToSummaries(b *testing.B) {
	path, n := benchCorpus(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, err := proxylog.ReadAll(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(records) != n {
			b.Fatalf("read %d records, want %d", len(records), n)
		}
		sums, _, err := pipeline.ExtractSummaries(ctx, pipeline.RecordEvents(records, nil), 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(sums) == 0 {
			b.Fatal("no summaries")
		}
	}
	b.ReportMetric(float64(n), "records/op")
}

var (
	benchLMOnce sync.Once
	benchLM     *langmodel.Model
	benchLMErr  error
)

func benchModel(tb testing.TB) *langmodel.Model {
	tb.Helper()
	benchLMOnce.Do(func() {
		benchLM, benchLMErr = langmodel.Train(corpus.PopularDomains(5000, 42))
	})
	if benchLMErr != nil {
		tb.Fatal(benchLMErr)
	}
	return benchLM
}

// BenchmarkPipelineEndToEnd runs the whole streaming pipeline — sharded
// scan through detection, indication and ranking — over the corpus.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	path, n := benchCorpus(b)
	shards, err := ingest.PlanShards([]string{path}, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{LM: benchModel(b)}
	opt := pipeline.StreamOptions{Workers: 4, Symbols: ingest.NewSymbolTable()}
	ctx := context.Background()
	if _, err := pipeline.RunStream(ctx, shards, nil, cfg, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pipeline.RunStream(ctx, shards, nil, cfg, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.InputEvents != n {
			b.Fatalf("pipeline saw %d events, want %d", res.Stats.InputEvents, n)
		}
	}
}
