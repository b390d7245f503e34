package source

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"baywatch/internal/casefile"
)

// publishedReference is what /host must serve for every host right now:
// the full materialization of the store with the casefile verdicts joined.
func publishedReference(e *Engine, labels map[string]int) map[string][]TimelineEntry {
	ref := e.Timelines()
	for src, entries := range ref {
		for i := range entries {
			entries[i].Case = caseVerdict(labels, src, entries[i].Destination)
		}
	}
	return ref
}

// deepCopyTimelines copies a generation's timelines down to the entries.
func deepCopyTimelines(m map[string][]TimelineEntry) map[string][]TimelineEntry {
	out := make(map[string][]TimelineEntry, len(m))
	for src, entries := range m {
		out[src] = slices.Clone(entries)
	}
	return out
}

// publishSequence drives a daemon's publish through one seeded random
// sequence: batches to new and existing pairs from two sources, commits
// that evict under RetainWindows (and, past the log's doubling, compact),
// ticks, source health flips, and casefile rewrites both good and
// corrupt. After every publish it hands the daemon, which serves the new
// generation, and the casefile verdicts in force to check.
func publishSequence(t *testing.T, seed int64, check func(step int, d *Daemon, labels map[string]int)) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	casePath := filepath.Join(t.TempDir(), "labels.json")
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 2, Pipeline: testPipelineCfg(t, nil)},
		Connectors: []Connector{
			&FileFollower{Path: "unused.log", SourceName: "a", PollInterval: time.Millisecond},
		},
		CasefilePath: casePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	const hosts, dests = 6, 8
	var labels map[string]int // the last casefile that parsed
	records := map[string]int64{}
	clock := int64(10_000)
	modTime := time.Unix(1_700_000_000, 0)
	check(0, d, labels)
	for step := 1; step <= 160; step++ {
		switch op := rng.Intn(20); {
		case op < 9:
			src := []string{"a", "b"}[rng.Intn(2)]
			events := make([]Event, 1+rng.Intn(8))
			for i := range events {
				events[i] = Event{
					Source:      fmt.Sprintf("10.0.0.%d", rng.Intn(hosts)),
					Destination: fmt.Sprintf("d%d.example", rng.Intn(dests)),
					TS:          clock + rng.Int63n(30),
				}
			}
			clock += rng.Int63n(60)
			records[src] += int64(len(events))
			d.eng.Apply(Batch{Source: src, Events: events, Pos: Position{Records: records[src]}})
			continue
		case op < 12:
			d.commit()
			continue
		case op < 14:
			d.eng.SetSourceHealth([]string{"a", "b"}[rng.Intn(2)], rng.Intn(3) != 0)
		case op < 16:
			modTime = modTime.Add(time.Second)
			if rng.Intn(3) == 0 {
				writeFile(t, casePath, "{not json")
			} else {
				next := map[string]int{}
				for i := 0; i < 6; i++ {
					next[fmt.Sprintf("10.0.0.%d|d%d.example", rng.Intn(hosts), rng.Intn(dests))] = rng.Intn(2)
				}
				if err := casefile.WriteLabels(casePath, next); err != nil {
					t.Fatal(err)
				}
				labels = next
			}
			if err := os.Chtimes(casePath, modTime, modTime); err != nil {
				t.Fatal(err)
			}
		case op < 18:
			d.runTick(context.Background())
			check(step, d, labels)
			continue
		}
		d.publishQuerySnapshot()
		check(step, d, labels)
	}
	if st := d.eng.Stats(); st.Evicted == 0 || st.Compactions < 2 || st.Ticks == 0 {
		t.Fatalf("seed %d: sequence too tame to cover the marks: %+v", seed, st)
	}
}

// TestPublishMatchesTimelines pins the incremental publish to the full
// materialization: after every publish of a random apply / evict / commit /
// tick / health / casefile sequence, every host's /host body equals
// Engine.Timelines() with the casefile verdicts joined, and no other host
// is served.
func TestPublishMatchesTimelines(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		publishSequence(t, seed, func(step int, d *Daemon, labels map[string]int) {
			qs := d.querySnap()
			want := publishedReference(d.eng, labels)
			if !reflect.DeepEqual(qs.timelines, want) {
				t.Fatalf("seed %d step %d (gen %d): published timelines\n%v\nwant\n%v", seed, step, qs.gen, qs.timelines, want)
			}
			h := d.QueryHandler()
			for src := range want {
				var got []TimelineEntry
				if err := json.Unmarshal(queryGet(t, h, "/host?src="+src, "").Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want[src]) {
					t.Fatalf("seed %d step %d: /host?src=%s = %+v, want %+v", seed, step, src, got, want[src])
				}
			}
			if body := queryGet(t, h, "/host?src=10.0.0.99", "").Body.String(); body != "null\n" {
				t.Fatalf("seed %d step %d: unknown host served %q", seed, step, body)
			}
		})
	}
}

// TestPublishedGenerationsImmutable pins the sharing rule: a published
// generation's timelines are never written again. Copies taken at several
// generations of a random sequence still equal those generations' maps
// after every later publish, though the later maps share their unchanged
// hosts' slices with them.
func TestPublishedGenerationsImmutable(t *testing.T) {
	type held struct {
		gen  int64
		m    map[string][]TimelineEntry
		copy map[string][]TimelineEntry
	}
	var kept []held
	publishSequence(t, 7, func(step int, d *Daemon, _ map[string]int) {
		for _, k := range kept {
			if !reflect.DeepEqual(k.m, k.copy) {
				t.Fatalf("step %d: generation %d's timelines changed after it was published:\n%v\nwas\n%v", step, k.gen, k.m, k.copy)
			}
		}
		if qs := d.querySnap(); qs.gen%4 == 1 {
			kept = append(kept, held{qs.gen, qs.timelines, deepCopyTimelines(qs.timelines)})
		}
	})
	if len(kept) < 5 {
		t.Fatalf("only %d generation(s) held", len(kept))
	}
}

// publishedStore opens an engine on pairs pairs, perHost destinations to a
// host and one event each, and publishes its timelines once.
func publishedStore(tb testing.TB, pairs, perHost int) (*Engine, map[string][]TimelineEntry) {
	tb.Helper()
	eng, err := OpenEngine(Config{StateDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]Event, pairs)
	for i := range events {
		events[i] = Event{Source: fmt.Sprintf("10.0.%d.%d", i/perHost/256, i/perHost%256), Destination: fmt.Sprintf("d%d.example", i%perHost), TS: 1000 + int64(i)}
	}
	eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: int64(pairs)}})
	prev, _ := eng.publishTimelines(nil)
	if len(prev) != (pairs+perHost-1)/perHost {
		tb.Fatalf("published %d hosts", len(prev))
	}
	return eng, prev
}

// markChanged leaves on each pair the marks Apply leaves on a pair that
// gains an event.
func (e *Engine) markChanged(keys []pairKey) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, k := range keys {
		if h := e.pairs[k]; h.shown {
			h.shown = false
			e.markHost(h.host)
		}
	}
}

// TestPublishAllocsIndependentOfStoreSize bounds what a publish allocates
// by what changed: with 1 % of the pairs changed, all of them one host's, a
// publish over 10k pairs allocates within a small constant of the same
// publish over 1k pairs — the shared hosts cost a slice header each in the
// map's copy, and no allocation.
func TestPublishAllocsIndependentOfStoreSize(t *testing.T) {
	allocs := func(pairs int) float64 {
		const perHost = 100
		eng, prev := publishedStore(t, pairs, perHost)
		changed := make([]pairKey, pairs/100)
		for i := range changed {
			changed[i] = pairKey{Src: "10.0.0.0", Dst: fmt.Sprintf("d%d.example", i)}
		}
		return testing.AllocsPerRun(20, func() {
			eng.markChanged(changed)
			var rebuilt []string
			prev, rebuilt = eng.publishTimelines(prev)
			if len(rebuilt) != 1 {
				t.Fatalf("rebuilt %v, want the one changed host", rebuilt)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+4 || large > 16 {
		t.Fatalf("publish with 1%% changed allocates %.0f times over 10k pairs, %.0f over 1k", large, small)
	}
}

// BenchmarkPublishTimelines times one publish with 1 % of the pairs
// changed, spread over the hosts (20 destinations each), beside the copy
// of the previous map it makes before taking e.mu (so e.mu is held for
// publish minus clone) and the full materialization it replaces.
func BenchmarkPublishTimelines(b *testing.B) {
	for _, pairs := range []int{10_000, 100_000} {
		const perHost = 20
		eng, prev := publishedStore(b, pairs, perHost)
		rng := rand.New(rand.NewSource(1))
		changed := make([]pairKey, pairs/100)
		for i := range changed {
			j := rng.Intn(pairs)
			changed[i] = pairKey{Src: fmt.Sprintf("10.0.%d.%d", j/perHost/256, j/perHost%256), Dst: fmt.Sprintf("d%d.example", j%perHost)}
		}
		b.Run(fmt.Sprintf("pairs=%d/publish", pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng.markChanged(changed)
				b.StartTimer()
				prev, _ = eng.publishTimelines(prev)
			}
		})
		b.Run(fmt.Sprintf("pairs=%d/clone", pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = maps.Clone(prev)
			}
		})
		b.Run(fmt.Sprintf("pairs=%d/timelines", pairs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = eng.Timelines()
			}
		})
	}
}

// TestSummaryPathSampleNotAliased pins buildSummary's sharing of the path
// sample: a summary the tick received keeps its URLPaths while the pair
// samples more paths, and a holder appending to a summary's sample gets an
// array of its own instead of writing into the one the pair goes on
// filling.
func TestSummaryPathSampleNotAliased(t *testing.T) {
	eng, err := OpenEngine(Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)})
	if err != nil {
		t.Fatal(err)
	}
	k := pairKey{Src: "10.0.0.1", Dst: "c2.example"}
	records, ts := int64(0), int64(1000)
	apply := func(paths ...string) {
		events := make([]Event, 0, 3*len(paths))
		for _, p := range paths {
			for j := 0; j < 3; j++ {
				events = append(events, Event{Source: k.Src, Destination: k.Dst, TS: ts, Path: p})
				ts += 60
			}
		}
		records += int64(len(events))
		eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: records}})
	}
	summaryOf := func(tr *TickResult) []string {
		for _, c := range tr.Result.Candidates {
			if c.Source == k.Src && c.Destination == k.Dst {
				return c.Summary.URLPaths
			}
		}
		t.Fatalf("tick %d has no candidate %s", tr.Tick, k)
		return nil
	}

	apply("/a", "/b", "/c") // three entries: the sample's array has room for a fourth
	first := summaryOf(mustTick(t, eng))
	eng.mu.Lock()
	held, err := eng.buildSummary(eng.pairs[k])
	eng.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	held.URLPaths = append(held.URLPaths, "/held")

	apply("/d", "/e")
	second := summaryOf(mustTick(t, eng))
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"first tick's summary", first, []string{"/a", "/b", "/c"}},
		{"held summary", held.URLPaths, []string{"/a", "/b", "/c", "/held"}},
		{"second tick's summary", second, []string{"/a", "/b", "/c", "/d", "/e"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s samples %q, want %q", c.what, c.got, c.want)
		}
	}
}

// TestReplayPairCountBoundedByFrame pins replay's one-time sizing of the
// store: a frame claiming more pairs than its bytes can encode fails to
// replay, having allocated no more than a few times the frame's size.
func TestReplayPairCountBoundedByFrame(t *testing.T) {
	const claimed = 1 << 16
	// Header with no sources, no evictions, then the pair count with just
	// enough padding that a count of bytes would pass.
	payload := append([]byte{0, 0, 0, 0, 0, 0}, binary.AppendUvarint(nil, claimed)...)
	payload = append(payload, make([]byte, claimed)...)
	eng := newEngine(tornCfg(t))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := eng.replayFrame(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errCheckpointCorrupt) {
		t.Fatalf("replay of a %d-pair claim in %d bytes: %v, want corruption", claimed, len(payload), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(payload)) {
		t.Fatalf("replay allocated %d bytes for a %d-byte frame", grew, len(payload))
	}
}
