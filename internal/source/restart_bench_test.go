package source

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"baywatch/internal/core"
)

// The restart benchmark models a daemon coming back on a committed store:
// a large population of pairs to whitelisted destinations, which cost a
// restart their replay and summary only, and a few hundred pairs to
// unlisted ones with planted beacons, which cost it a detection each —
// unless the log already holds that detection. One iteration is OpenEngine
// plus the first Tick. BenchmarkRestartFirstTick/warm opens the log under
// the configuration that wrote it; /cold opens the same file under another
// detector seed, so every stored detection is foreign and the tick detects
// the whole population, as every restart did before detections were stored.
// The benchgate min-ratio contract (Makefile BENCH_RESTART_MIN_RATIO) holds
// warm to a floor multiple of cold's restarts/s in the same run, cancelling
// machine speed out.
const (
	benchRestartListed   = 9700 // pairs to whitelisted destinations, 8 events each
	benchRestartUnlisted = 300  // beaconing pairs that reach detection, 64 events each
)

func BenchmarkRestartFirstTick(b *testing.B) {
	catalog := make([]string, 200)
	for i := range catalog {
		catalog[i] = fmt.Sprintf("site%d.example", i)
	}
	cfg := Config{StateDir: b.TempDir(), Pipeline: testPipelineCfg(b, catalog)}
	cfg.Pipeline.Detector = core.DefaultConfig()

	rng := rand.New(rand.NewSource(1))
	var events []Event
	for i := 0; i < benchRestartListed; i++ {
		src, dst := fmt.Sprintf("h%d", i/len(catalog)), catalog[i%len(catalog)]
		for j := int64(0); j < 8; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: 1000 + j*600 + rng.Int63n(600)})
		}
	}
	for i := 0; i < benchRestartUnlisted; i++ {
		src, dst := fmt.Sprintf("h%d", i), fmt.Sprintf("c2-%d.example", i)
		period := int64(30 + 15*(i%5))
		for j := int64(0); j < 64; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: 1000 + j*period + rng.Int63n(3), Path: "/gate.php"})
		}
	}
	eng, err := OpenEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: int64(len(events))}})
	first, err := eng.Tick(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Commit(); err != nil {
		b.Fatal(err)
	}
	if first.Detected != benchRestartUnlisted || first.Result.Stats.Periodic < benchRestartUnlisted/2 {
		b.Fatalf("set-up tick detected %d pairs, %d periodic; want the %d planted beacons",
			first.Detected, first.Result.Stats.Periodic, benchRestartUnlisted)
	}

	foreign := cfg
	foreign.Pipeline.Detector.Seed++
	for _, mode := range []struct {
		name     string
		cfg      Config
		detected int
	}{{"cold", foreign, benchRestartUnlisted}, {"warm", cfg, 0}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Neither mode commits, so every iteration opens the same file.
				re, err := OpenEngine(mode.cfg)
				if err != nil {
					b.Fatal(err)
				}
				got, err := re.Tick(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if got.Detected != mode.detected || got.Result.Stats.Pairs != benchRestartListed+benchRestartUnlisted {
					b.Fatalf("first tick detected %d of %d pairs, want %d", got.Detected, got.Result.Stats.Pairs, mode.detected)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "restarts/s")
		})
	}
}
