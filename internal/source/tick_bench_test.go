package source

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/pipeline"
	"baywatch/internal/timeseries"
)

// The steady-state tick benchmarks model the daemon at scale: a large
// standing pair population of which only a small fraction changed since
// the last tick. BenchmarkTickSteadyState runs Engine.Tick;
// BenchmarkTickFullRecompute runs the identical workload through
// fullRecompute, the rebuild-everything reference. The benchgate
// min-ratio contract (Makefile BENCH_TICK_MIN_RATIO) holds the tick to a
// floor multiple of the reference's ticks/s in the same run, cancelling
// machine speed out.
const (
	benchTickPairs = 10000
	benchTickDirty = 100 // 1% of the population changes per tick
)

// benchTickEvents lays out the standing population: steady pairs with
// enough history to pass detection's pruning gate, plus the hot pairs the
// per-iteration delta touches.
func benchTickEvents() []Event {
	events := make([]Event, 0, (benchTickPairs-benchTickDirty)*64+benchTickDirty*4)
	for i := 0; i < benchTickPairs-benchTickDirty; i++ {
		src, dst := fmt.Sprintf("h%d", i), fmt.Sprintf("d%d.example", i)
		for j := int64(0); j < 64; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: 1000 + j*60})
		}
	}
	for i := 0; i < benchTickDirty; i++ {
		src, dst := fmt.Sprintf("hot%d", i), fmt.Sprintf("hot%d.example", i)
		for j := int64(0); j < 4; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: 1000 + j*60})
		}
	}
	return events
}

// fullRecompute is the reference a standing tick is measured against:
// every pair's summary rebuilt from the engine's store and analyzed by a
// fresh pipeline — one tick from empty, nothing carried over but the
// configuration (and with it the shared threshold memo).
func fullRecompute(ctx context.Context, e *Engine) (*pipeline.Result, error) {
	e.mu.Lock()
	keys := e.sortedPairKeys()
	summaries := make([]*timeseries.ActivitySummary, 0, len(keys))
	for _, k := range keys {
		as, err := e.buildSummary(k, e.pairs[k])
		if err != nil {
			e.mu.Unlock()
			return nil, err
		}
		summaries = append(summaries, as)
	}
	cfg := e.cfg.Pipeline
	cfg.Scale = e.cfg.Scale
	e.mu.Unlock()
	return pipeline.RunSummaries(ctx, summaries, cfg)
}

func benchTick(b *testing.B, full bool) {
	pcfg := testPipelineCfg(b, nil)
	det := core.DefaultConfig()
	det.Permutations = 5
	pcfg.Detector = det
	pcfg.Thresholds = core.NewThresholdMemo(0)
	eng, err := OpenEngine(Config{
		StateDir: b.TempDir(),
		Scale:    60,
		Pipeline: pcfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	events := benchTickEvents()
	records := int64(len(events))
	eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: records}})
	// Warm tick: pays the one-time full detection of the standing
	// population and fills the threshold memo both modes share.
	if _, err := eng.Tick(context.Background()); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delta := make([]Event, benchTickDirty)
		for j := 0; j < benchTickDirty; j++ {
			delta[j] = Event{
				Source:      fmt.Sprintf("hot%d", j),
				Destination: fmt.Sprintf("hot%d.example", j),
				TS:          1240 + int64(i)*60,
			}
		}
		records += int64(len(delta))
		eng.Apply(Batch{Source: "s", Events: delta, Pos: Position{Records: records}})
		b.StartTimer()
		if full {
			_, err = fullRecompute(context.Background(), eng)
		} else {
			_, err = eng.Tick(context.Background())
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ticks/s")
}

func BenchmarkTickSteadyState(b *testing.B)   { benchTick(b, false) }
func BenchmarkTickFullRecompute(b *testing.B) { benchTick(b, true) }

// BenchmarkQueryRankedCached measures the generation-cached serving path
// under a revalidating scraper: every request presents the current ETag
// and is answered 304 from the immutable snapshot — no engine access, no
// recomputation, no body.
func BenchmarkQueryRankedCached(b *testing.B) {
	_, persistent := churnRecords(0)
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: b.TempDir(), Pipeline: testPipelineCfg(b, nil)},
		Connectors: []Connector{
			&FileFollower{Path: "unused.log", SourceName: "feed", PollInterval: time.Millisecond},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	events := recordsToEvents(persistent)
	d.Engine().Apply(Batch{Source: "feed", Events: events, Pos: Position{Records: int64(len(events))}})
	d.runTick(context.Background())
	h := d.QueryHandler()

	probe := httptest.NewRecorder()
	h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/ranked", nil))
	etag := probe.Header().Get("ETag")
	if probe.Code != http.StatusOK || etag == "" {
		b.Fatalf("probe = %d etag %q", probe.Code, etag)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/ranked", nil)
		req.Header.Set("If-None-Match", etag)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusNotModified {
			b.Fatalf("request %d = %d, want 304", i, w.Code)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
