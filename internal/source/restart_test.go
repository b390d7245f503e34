package source

import (
	"context"
	"reflect"
	"testing"

	"baywatch/internal/core"
)

// restartStore commits the small trace with a tick's detections into a
// fresh state directory and returns the config it ran under and that
// tick's result — the warm store the restart tests reopen.
func restartStore(t *testing.T) (Config, *TickResult) {
	t.Helper()
	tr := smallTrace(t)
	cfg := Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, tr.Catalog[:50])}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "proxy", recordsToEvents(tr.Records), 500)
	first, err := eng.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	if first.Detected == 0 || first.Detected != first.Result.Stats.AfterLocalWhitelist || first.Result.Stats.Reported == 0 {
		t.Fatalf("cold tick detected %d of %d unlisted pairs and reported %d; the restart tests would be vacuous",
			first.Detected, first.Result.Stats.AfterLocalWhitelist, first.Result.Stats.Reported)
	}
	return cfg, first
}

func mustTick(t *testing.T, e *Engine) *TickResult {
	t.Helper()
	tr, err := e.Tick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRestartDetectsOncePerHistory pins what a restart's first tick sends
// through the detect job: nothing when the store is unchanged, exactly the
// pairs that gained events while no tick ran, and every unlisted pair when
// the seed, the permutation count or the scale changed — each time with
// the analysis a cold batch run under the running configuration returns.
func TestRestartDetectsOncePerHistory(t *testing.T) {
	cfg, first := restartStore(t)
	unlisted := first.Detected

	t.Run("unchanged store", func(t *testing.T) {
		re := reopenCopy(t, cfg)
		if st := re.Stats(); st.DetectionsRestored != int64(unlisted) || st.DetectionsStale != 0 {
			t.Fatalf("restart restored %d detections and found %d stale, want %d and 0", st.DetectionsRestored, st.DetectionsStale, unlisted)
		}
		got := mustTick(t, re)
		if got.Detected != 0 || got.Dirty != got.Result.Stats.Pairs {
			t.Fatalf("first tick after a restart detected %d pair(s) with %d of %d dirty, want 0 with all dirty",
				got.Detected, got.Dirty, got.Result.Stats.Pairs)
		}
		sameAnalysis(t, "restart vs the tick before it", got.Result, first.Result)
		sameAnalysis(t, "restart vs batch", got.Result, batchOver(t, re))
		// The adopted detections are already in the log: nothing to save.
		before := re.Stats()
		if err := re.Commit(); err != nil {
			t.Fatal(err)
		}
		if after := re.Stats(); after.Commits != before.Commits {
			t.Fatalf("a warm restart's commit wrote a frame with nothing new: %+v -> %+v", before, after)
		}
	})

	t.Run("events while down", func(t *testing.T) {
		// k unlisted pairs and one whitelisted pair gain an event and are
		// committed with no tick in between, as a crash before the next
		// tick leaves them.
		const k = 3
		re := reopenCopy(t, cfg)
		pos := re.Position("proxy")
		var grown []Event
		for _, c := range first.Result.Candidates[:k] {
			grown = append(grown, Event{Source: c.Source, Destination: c.Destination, TS: c.Summary.First + 7})
		}
		unlisted := map[pairKey]bool{}
		for _, c := range first.Result.Candidates {
			unlisted[pairKey{Src: c.Source, Dst: c.Destination}] = true
		}
		for key := range stateOf(t, re).Pairs {
			if !unlisted[key] {
				grown = append(grown, Event{Source: key.Src, Destination: key.Dst, TS: 1})
				break
			}
		}
		if len(grown) != k+1 {
			t.Fatal("trace has no whitelisted pair")
		}
		pos.Records += int64(len(grown))
		re.Apply(Batch{Source: "proxy", Events: grown, Pos: pos})
		if err := re.Commit(); err != nil {
			t.Fatal(err)
		}
		again := reopenCopy(t, re.cfg)
		if st := again.Stats(); st.DetectionsRestored != int64(first.Detected-k) || st.DetectionsStale != k {
			t.Fatalf("restart restored %d detections and found %d stale, want %d and %d",
				st.DetectionsRestored, st.DetectionsStale, first.Detected-k, k)
		}
		got := mustTick(t, again)
		if got.Detected != k {
			t.Fatalf("first tick detected %d pair(s), want the %d that gained events", got.Detected, k)
		}
		sameAnalysis(t, "restart vs batch", got.Result, batchOver(t, again))
	})

	for name, change := range map[string]func(*Config){
		"seed":         func(c *Config) { c.Pipeline.Detector = core.DefaultConfig(); c.Pipeline.Detector.Seed = 99 },
		"permutations": func(c *Config) { c.Pipeline.Detector = core.DefaultConfig(); c.Pipeline.Detector.Permutations = 7 },
		"scale":        func(c *Config) { c.Scale = 5 },
	} {
		t.Run("changed "+name, func(t *testing.T) {
			changed := cfg
			change(&changed)
			re := reopenCopy(t, changed)
			if st := re.Stats(); st.DetectionsRestored != 0 || st.DetectionsStale != int64(unlisted) {
				t.Fatalf("restart under another configuration restored %d detections and found %d stale, want 0 and %d",
					st.DetectionsRestored, st.DetectionsStale, unlisted)
			}
			if len(re.Recovery().Warnings)+len(re.Recovery().Quarantined) != 0 {
				t.Fatalf("a configuration change read as damage: %+v", re.Recovery())
			}
			got := mustTick(t, re)
			if got.Detected != got.Result.Stats.AfterLocalWhitelist {
				t.Fatalf("first tick detected %d of %d unlisted pairs, want all", got.Detected, got.Result.Stats.AfterLocalWhitelist)
			}
			cold := batchOver(t, re)
			sameAnalysis(t, "restart vs a cold run under the new configuration", got.Result, cold)
			same := 0
			for i, c := range cold.Candidates {
				if reflect.DeepEqual(c.Detection, first.Result.Candidates[i].Detection) {
					same++
				}
			}
			if name != "scale" && same == len(cold.Candidates) {
				t.Fatal("the changed configuration detects exactly what the old one did; serving a stored detection would go unnoticed")
			}
			// The next commit replaces the foreign records with this
			// configuration's, and a restart under it is warm again.
			if err := re.Commit(); err != nil {
				t.Fatal(err)
			}
			if warm := mustTick(t, reopenCopy(t, re.cfg)); warm.Detected != 0 {
				t.Fatalf("restart under the configuration that wrote the log detected %d pair(s)", warm.Detected)
			}
		})
	}
}

// TestEvictedPairNeverInheritsDetection: a pair evicted and seen again is a
// new history, even when it holds as many events as the detection stored
// for the old one covered — in memory and across a restart.
func TestEvictedPairNeverInheritsDetection(t *testing.T) {
	pcfg := testPipelineCfg(t, nil)
	cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 2, Pipeline: pcfg}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pos Position
	apply := func(events ...Event) {
		pos.Records += int64(len(events))
		eng.Apply(Batch{Source: "s", Events: events, Pos: pos})
	}
	beacon := func(from int64, n int, step int64) []Event {
		out := make([]Event, n)
		for i := range out {
			out[i] = Event{Source: "h", Destination: "old.example", TS: from + int64(i)*step}
		}
		return out
	}
	pair := pairKey{Src: "h", Dst: "old.example"}

	apply(beacon(1000, 12, 30)...) // 12 events on a 30 s grid
	before := mustTick(t, eng)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	old := stateOf(t, eng).Detections[pair]
	if old.Covered != 12 || !old.Result.Periodic {
		t.Fatalf("stored detection = %+v over %d events, want a periodic verdict over 12", old.Result, old.Covered)
	}

	// The stream moves on past the retention horizon; the commit evicts the
	// pair. It then comes back with 12 events of no regularity at all.
	apply(Event{Source: "h2", Destination: "other.example", TS: 5000})
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().Evicted != 1 {
		t.Fatalf("stats = %+v, want the idle pair evicted", eng.Stats())
	}
	var back []Event
	for i, gap := range []int64{3, 170, 11, 94, 5, 260, 41, 2, 133, 19, 77, 8} {
		ts := int64(5100)
		if i > 0 {
			ts = back[i-1].TS + gap
		}
		back = append(back, Event{Source: "h", Destination: "old.example", TS: ts})
	}
	apply(back...)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, inherited := stateOf(t, eng).Detections[pair]; inherited {
		t.Fatal("the new history answers with the evicted one's detection in memory")
	}
	re := reopenCopy(t, cfg)
	if _, inherited := stateOf(t, re).Detections[pair]; inherited {
		t.Fatal("the new history answers with the evicted one's detection after a restart")
	}
	for what, e := range map[string]*Engine{"live": eng, "restarted": re} {
		got := mustTick(t, e)
		sameAnalysis(t, what+" vs batch", got.Result, batchOver(t, e))
		for _, c := range got.Result.Candidates {
			if c.Source == "h" && c.Destination == "old.example" && reflect.DeepEqual(c.Detection, before.Result.Candidates[0].Detection) {
				t.Fatalf("%s: the returned pair carries the evicted history's detection", what)
			}
		}
	}
}

// TestDetectionFingerprintCoversConfiguration: changing any one field of
// the detector configuration, the scale, or nothing-but-defaults moves the
// fingerprint exactly when it moves what the detector runs under.
func TestDetectionFingerprintCoversConfiguration(t *testing.T) {
	base := Config{Scale: 1}
	base.Pipeline.Detector = core.DefaultConfig()
	want := detectionFingerprint(base)
	if got := detectionFingerprint(Config{Scale: 1}); got != want {
		t.Error("a zero detector configuration runs as the defaults but fingerprints differently")
	}
	scaled := base
	scaled.Scale = 60
	if detectionFingerprint(scaled) == want {
		t.Error("the fingerprint ignores the series scale")
	}
	fields := reflect.TypeOf(core.Config{})
	for i := 0; i < fields.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed.Pipeline.Detector).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() / 2)
		default:
			t.Fatalf("core.Config.%s has kind %s; teach this test to change it", fields.Field(i).Name, f.Kind())
		}
		if detectionFingerprint(changed) == want {
			t.Errorf("the fingerprint ignores core.Config.%s", fields.Field(i).Name)
		}
	}
}
