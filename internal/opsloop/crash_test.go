package opsloop

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/novelty"
	"baywatch/internal/synthetic"
	"baywatch/internal/timeseries"
)

var errInjected = errors.New("injected I/O fault")

// crashTrace is a deliberately small workload so the
// crash-at-every-injection-point loop stays fast.
func crashTrace(t *testing.T, days int) *synthetic.Trace {
	t.Helper()
	gen := synthetic.DefaultConfig()
	gen.Days = days
	gen.Hosts = 12
	gen.CatalogSize = 120
	gen.BrowsingSessionsPerHostDay = 1
	gen.UpdateServices = 2
	gen.NicheServices = 1
	gen.Infections = []synthetic.Infection{{
		Family: "Zbot", Clients: 2, Period: 180,
		Noise: synthetic.NoiseConfig{JitterSigma: 3},
	}}
	tr, err := synthetic.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestCrashAtEveryInjectionPointConverges is the fault-injection suite's
// centerpiece: it crashes the operator at every injection point reached
// while ingesting a day, "restarts" it by reopening the state directory,
// and asserts the recovered state converges — no day lost or double
// counted, history intact, and the novelty store never ahead of the
// persisted history (an uncommitted day's alerts are re-reported in full
// on re-ingest, not suppressed).
func TestCrashAtEveryInjectionPointConverges(t *testing.T) {
	const days = 2
	tr := crashTrace(t, days)
	perDay := splitDays(tr, days)
	pcfg := testPipelineConfig(t, tr)
	ctx := context.Background()
	mkLoop := func(dir string) *Loop {
		t.Helper()
		loop, err := New(Config{StateDir: dir, Pipeline: pcfg, WeeklyEvery: days}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return loop
	}

	// Fault-free baseline.
	base := mkLoop(t.TempDir())
	rep1, err := base.IngestDay(ctx, perDay[0])
	if err != nil {
		t.Fatal(err)
	}
	hist1 := base.HistoryPairs()
	novD1, novP1 := base.store.Size()
	rep2, err := base.IngestDay(ctx, perDay[1])
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Weekly == nil {
		t.Fatal("baseline: weekly pass did not run on day 2")
	}
	hist2 := base.HistoryPairs()
	novD2, novP2 := base.store.Size()
	if rep1.Daily.Stats.Reported == 0 {
		t.Fatal("baseline day 1 reported nothing; the novelty asserts below would be vacuous")
	}

	// Enumerate the injection points each day's ingest traverses, under
	// Run so the hits on its goroutine are traced as watched.
	probe := mkLoop(t.TempDir())
	traces := make([][]faultinject.Hit, days)
	for day := range days {
		sched := faultinject.New(0)
		restore := faultinject.Install(sched.Hook())
		crash, err := faultinject.Run(func() error {
			_, err := probe.IngestDay(ctx, perDay[day])
			return err
		})
		restore()
		if crash != nil || err != nil {
			t.Fatalf("probe day %d: crash %v, err %v", day+1, crash, err)
		}
		traces[day] = sched.Trace()
	}
	trace := traces[days-1]
	if len(trace) < 8 {
		t.Fatalf("only %d injection points traversed; commit protocol not instrumented?", len(trace))
	}
	t.Logf("day-2 ingest traverses %d injection points: %v", len(trace), trace)

	// Every fatal hit dies there. The pipeline's and ingest's task points
	// fail instead (their recover makes a crash the task's failure), at a
	// sample of their hits, and a day committed with that failure isolated
	// is as durable as any.
	for day := 1; day <= days; day++ {
		for _, h := range faultinject.Enumerate(traces[day-1]) {
			dir := t.TempDir()
			loop := mkLoop(dir)
			if day == 2 {
				if _, err := loop.IngestDay(ctx, perDay[0]); err != nil {
					t.Fatal(err)
				}
			}
			sched := faultinject.At(h, errInjected)
			restore := faultinject.Install(sched.Hook())
			var rep *Report
			crash, err := faultinject.Run(func() error {
				var err error
				rep, err = loop.IngestDay(ctx, perDay[day-1])
				return err
			})
			restore()
			if sw := sched.Swallowed(); len(sw) > 0 {
				t.Fatalf("day %d fault at %s (hit %d): %v never reached Run; a recover took it for a task failure", day, h.Point, h.N, sw[0])
			}
			if err != nil && !errors.Is(err, errInjected) {
				t.Fatalf("day %d fault at %s (hit %d): err = %v, want the injected fault", day, h.Point, h.N, err)
			}
			if crash == nil && err == nil {
				// The failure stays in the day's report, and the committed
				// day reopens as it was written.
				if !rep.Daily.Degraded && (rep.Weekly == nil || !rep.Weekly.Degraded) {
					t.Fatalf("day %d fault at %s (hit %d): no crash and no isolated failure", day, h.Point, h.N)
				}
				re := mkLoop(dir)
				if re.DaysIngested() != day || re.HistoryPairs() != loop.HistoryPairs() || len(re.Recovery().Quarantined) != 0 {
					t.Fatalf("day %d fault at %s (hit %d): reopen diverged (%d days, %d pairs, quarantined %v)",
						day, h.Point, h.N, re.DaysIngested(), re.HistoryPairs(), re.Recovery().Quarantined)
				}
				continue
			}

			// "Restart" the operator and converge.
			what := fmt.Sprintf("%s (hit %d)", h.Point, h.N)
			re := mkLoop(dir)
			switch re.DaysIngested() {
			case day - 1:
				// The faulted day was not committed: re-ingest it and
				// require the full alert volume (novelty must not have
				// run ahead of the persisted history).
				rep, err := re.IngestDay(ctx, perDay[day-1])
				if err != nil {
					t.Fatalf("day %d fault at %s: re-ingest failed: %v", day, what, err)
				}
				want := rep1.Daily.Stats.Reported
				if day == 2 {
					want = rep2.Daily.Stats.Reported
				}
				if rep.Daily.Stats.Reported != want {
					t.Errorf("day %d fault at %s: re-ingest reported %d cases, want %d (novelty ran ahead of history?)",
						day, what, rep.Daily.Stats.Reported, want)
				}
			case day:
				// A crash after the commit point: the day must not be
				// ingestable twice by the resumed operator's counter.
			default:
				t.Fatalf("day %d fault at %s: recovered DaysIngested = %d", day, what, re.DaysIngested())
			}
			if re.DaysIngested() != day {
				t.Fatalf("day %d fault at %s: converged to %d days", day, what, re.DaysIngested())
			}
			wantHist, wantD, wantP := hist1, novD1, novP1
			if day == 2 {
				wantHist, wantD, wantP = hist2, novD2, novP2
			}
			if re.HistoryPairs() != wantHist {
				t.Errorf("day %d fault at %s: history %d pairs, want %d", day, what, re.HistoryPairs(), wantHist)
			}
			if d, p := re.store.Size(); d != wantD || p != wantP {
				t.Errorf("day %d fault at %s: novelty (%d,%d), want (%d,%d)", day, what, d, p, wantD, wantP)
			}

			// The converged state must also be durable: a second reopen
			// sees the same thing with nothing left to repair.
			re2 := mkLoop(dir)
			if re2.DaysIngested() != day || re2.HistoryPairs() != wantHist {
				t.Errorf("day %d fault at %s: second reopen diverged (%d days, %d pairs)",
					day, what, re2.DaysIngested(), re2.HistoryPairs())
			}
			if q := re2.Recovery().Quarantined; len(q) != 0 {
				t.Errorf("day %d fault at %s: second reopen still repairing: %v", day, what, q)
			}
		}
	}
}

// TestInjectedErrorsRollBackAndRetry verifies every file-op injection
// point fails an ingest cleanly — error out, in-memory state rolled back
// — and that the same day then succeeds on retry once the (transient)
// fault clears.
func TestInjectedErrorsRollBackAndRetry(t *testing.T) {
	const days = 1
	tr := crashTrace(t, days)
	perDay := splitDays(tr, days)
	pcfg := testPipelineConfig(t, tr)
	ctx := context.Background()

	// Enumerate the distinct opsloop points of a day-1 ingest. The trace
	// also holds the pipeline's and ingest's task points, where an error is
	// a pair's or shard's isolated failure rather than the ingest's; the
	// crash enumeration above covers those.
	probe, err := New(Config{StateDir: t.TempDir(), Pipeline: pcfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched := faultinject.New(0)
	restore := faultinject.Install(sched.Hook())
	_, err = probe.IngestDay(ctx, perDay[0])
	restore()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var uniquePoints []string
	for _, h := range sched.Trace() {
		if !strings.HasPrefix(h.Point, "opsloop.") {
			continue
		}
		if !seen[h.Point] {
			seen[h.Point] = true
			uniquePoints = append(uniquePoints, h.Point)
		}
	}

	// The enumeration must traverse every registered opsloop point: the
	// per-point transient-fault loop below is the repo's fault-injection
	// coverage of the opsloop registry (see faultinject.Points), so a
	// registered point the ingest never hits would silently lose coverage.
	for _, p := range []faultinject.Point{
		faultinject.PointOpsloopManifestCreate,
		faultinject.PointOpsloopManifestWrite,
		faultinject.PointOpsloopManifestSync,
		faultinject.PointOpsloopManifestRename,
		faultinject.PointOpsloopManifestDirsync,
		faultinject.PointOpsloopDayCreate,
		faultinject.PointOpsloopDayWrite,
		faultinject.PointOpsloopDaySync,
		faultinject.PointOpsloopDayRename,
		faultinject.PointOpsloopDayDirsync,
		faultinject.PointOpsloopNoveltySave,
		faultinject.PointOpsloopCommitDone,
	} {
		if !seen[string(p)] {
			t.Errorf("registered point %s not traversed by a full ingest", p)
		}
	}

	for _, point := range uniquePoints {
		if point == string(faultinject.PointOpsloopCommitDone) {
			continue // post-commit: error returns are deliberately ignored
		}
		loop, err := New(Config{StateDir: t.TempDir(), Pipeline: pcfg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := faultinject.New(0)
		// Transient fault script: the first two traversals fail, the
		// third succeeds.
		s.FailTransient(faultinject.Point(point), 1, 2, errInjected)
		restore := faultinject.Install(s.Hook())
		for attempt := 1; attempt <= 2; attempt++ {
			if _, err := loop.IngestDay(ctx, perDay[0]); !errors.Is(err, errInjected) {
				restore()
				t.Fatalf("%s attempt %d: err = %v, want injected fault", point, attempt, err)
			}
			if loop.DaysIngested() != 0 {
				restore()
				t.Fatalf("%s: day counted despite failed ingest", point)
			}
			if loop.HistoryPairs() != 0 {
				restore()
				t.Fatalf("%s: history not rolled back", point)
			}
			if d, p := loop.store.Size(); d != 0 || p != 0 {
				restore()
				t.Fatalf("%s: novelty store not rolled back (%d,%d)", point, d, p)
			}
		}
		rep, err := loop.IngestDay(ctx, perDay[0])
		restore()
		if err != nil {
			t.Fatalf("%s: retry after transient fault failed: %v", point, err)
		}
		if rep.DaysIngested != 1 || loop.DaysIngested() != 1 {
			t.Fatalf("%s: retry converged to %d days", point, loop.DaysIngested())
		}
		if rep.Daily.Stats.Reported == 0 {
			t.Errorf("%s: retry suppressed the day's alerts", point)
		}
	}
}

func TestCorruptDayFileQuarantinedNotFatal(t *testing.T) {
	const days = 2
	tr := crashTrace(t, days)
	perDay := splitDays(tr, days)
	pcfg := testPipelineConfig(t, tr)
	ctx := context.Background()

	// build ingests both days into a fresh state dir and reports the
	// history size with and without day 1.
	build := func(t *testing.T) (dir string, totalPairs, day1Pairs int) {
		t.Helper()
		dir = t.TempDir()
		loop, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < days; d++ {
			if _, err := loop.IngestDay(ctx, perDay[d]); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := readDayFile(filepath.Join(dir, "summaries", "day-000001.bin"))
		if err != nil {
			t.Fatal(err)
		}
		return dir, loop.HistoryPairs(), len(sums)
	}

	for name, corrupt := range map[string]func(path string) error{
		"bitflip": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x20
			return os.WriteFile(path, data, 0o644)
		},
		"truncated": func(path string) error {
			stat, err := os.Stat(path)
			if err != nil {
				return err
			}
			return os.Truncate(path, stat.Size()/2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, totalPairs, day1Pairs := build(t)
			day1 := filepath.Join(dir, "summaries", "day-000001.bin")
			if err := corrupt(day1); err != nil {
				t.Fatal(err)
			}
			var logged []string
			re, err := New(Config{StateDir: dir, Pipeline: pcfg,
				Logf: func(f string, a ...any) { logged = append(logged, f) }}, nil)
			if err != nil {
				t.Fatalf("New aborted on corrupt day file: %v", err)
			}
			// The counter comes from the manifest, not the surviving files.
			if re.DaysIngested() != days {
				t.Errorf("DaysIngested = %d, want %d", re.DaysIngested(), days)
			}
			if re.HistoryPairs() != totalPairs-day1Pairs {
				t.Errorf("history = %d pairs, want %d (day 1 dropped)", re.HistoryPairs(), totalPairs-day1Pairs)
			}
			rec := re.Recovery()
			if len(rec.Quarantined) != 1 || !strings.Contains(rec.Quarantined[0], "quarantine") {
				t.Fatalf("Quarantined = %v, want one file under quarantine/", rec.Quarantined)
			}
			if _, err := os.Stat(rec.Quarantined[0]); err != nil {
				t.Errorf("quarantined file missing: %v", err)
			}
			if len(logged) == 0 {
				t.Error("no warning logged")
			}
			// The repaired view is durable: a further restart has nothing
			// left to fix and the loop keeps ingesting.
			re2, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(re2.Recovery().Quarantined) != 0 {
				t.Errorf("second reopen still repairing: %v", re2.Recovery().Quarantined)
			}
			if rep, err := re2.IngestDay(ctx, perDay[0]); err != nil {
				t.Fatal(err)
			} else if rep.DaysIngested != days+1 {
				t.Errorf("ingest after repair counted day %d, want %d", rep.DaysIngested, days+1)
			}
		})
	}
}

func TestUncommittedDayFileQuarantined(t *testing.T) {
	tr := crashTrace(t, 1)
	perDay := splitDays(tr, 1)
	pcfg := testPipelineConfig(t, tr)
	dir := t.TempDir()

	loop, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.IngestDay(context.Background(), perDay[0]); err != nil {
		t.Fatal(err)
	}
	// A day file the manifest never committed (crash between the day-file
	// rename and the manifest commit).
	orphan := filepath.Join(dir, "summaries", "day-000002.bin")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.DaysIngested() != 1 {
		t.Errorf("DaysIngested = %d, want 1 (orphan must not count)", re.DaysIngested())
	}
	if len(re.Recovery().Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want the orphan", re.Recovery().Quarantined)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan still in summaries/")
	}
}

func TestLegacyStateDirAdopted(t *testing.T) {
	dir := t.TempDir()
	// A pre-manifest layout: footer-less day file + legacy novelty.json.
	as, err := timeseries.FromTimestamps("src", "dst", []int64{100, 200, 300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sums := []*timeseries.ActivitySummary{as}
	if err := os.MkdirAll(filepath.Join(dir, "summaries"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "summaries", "day-000001.bin"),
		encodeDaySummaries(sums), 0o644); err != nil {
		t.Fatal(err)
	}
	store := novelty.NewStore()
	store.MarkReported("src", "dst")
	if err := store.Save(filepath.Join(dir, "novelty.json")); err != nil {
		t.Fatal(err)
	}

	loop, err := New(Config{StateDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !loop.Recovery().Reconstructed {
		t.Error("legacy adoption not reported as a reconstruction")
	}
	if loop.DaysIngested() != 1 || loop.HistoryPairs() != 1 {
		t.Errorf("adopted (%d days, %d pairs), want (1, 1)", loop.DaysIngested(), loop.HistoryPairs())
	}
	if d, p := loop.store.Size(); d != 1 || p != 1 {
		t.Errorf("legacy novelty not adopted: (%d, %d)", d, p)
	}
	if _, ok, err := loadManifest(dir); err != nil || !ok {
		t.Errorf("manifest not written after adoption: ok=%v err=%v", ok, err)
	}
	// A second open needs no repairs and sees the same state.
	re, err := New(Config{StateDir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Recovery().Reconstructed || len(re.Recovery().Quarantined) != 0 {
		t.Errorf("second open still repairing: %+v", re.Recovery())
	}
	if re.DaysIngested() != 1 || re.HistoryPairs() != 1 {
		t.Errorf("second open diverged: (%d, %d)", re.DaysIngested(), re.HistoryPairs())
	}
}

func TestCorruptManifestQuarantinedAndRebuilt(t *testing.T) {
	tr := crashTrace(t, 1)
	perDay := splitDays(tr, 1)
	pcfg := testPipelineConfig(t, tr)
	dir := t.TempDir()
	loop, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loop.IngestDay(context.Background(), perDay[0]); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := New(Config{StateDir: dir, Pipeline: pcfg}, nil)
	if err != nil {
		t.Fatalf("New aborted on corrupt manifest: %v", err)
	}
	if !re.Recovery().Reconstructed {
		t.Error("corrupt manifest not reported as reconstruction")
	}
	if re.DaysIngested() != 1 || re.HistoryPairs() != loop.HistoryPairs() {
		t.Errorf("rebuilt (%d days, %d pairs), want (1, %d)",
			re.DaysIngested(), re.HistoryPairs(), loop.HistoryPairs())
	}
}

// TestQuarantineLongNameTerminates: an unrecognized file in summaries/
// whose name is already in quarantine/ and too long to take a ".N" suffix
// (a 254-byte name; NAME_MAX is 255) cannot be moved aside. Recovery
// warns and leaves it in place instead of searching for a free name
// forever; the deadline turns such a loop into a failure, not a hang.
func TestQuarantineLongNameTerminates(t *testing.T) {
	dir := t.TempDir()
	name := strings.Repeat("n", 250) + ".bin"
	if _, err := os.Lstat(filepath.Join(dir, name+".1")); !errors.Is(err, syscall.ENAMETOOLONG) {
		t.Skipf("filesystem takes 256-byte names (Lstat: %v)", err)
	}
	for _, sub := range []string{"summaries", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, name), []byte(sub), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	type opened struct {
		loop *Loop
		err  error
	}
	done := make(chan opened, 1)
	go func() {
		loop, err := New(Config{StateDir: dir}, nil)
		done <- opened{loop, err}
	}()
	var got opened
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("New did not return: quarantine's free-name search loops on an Lstat error")
	}
	if got.err != nil {
		t.Fatalf("New: %v", got.err)
	}
	if rec := got.loop.Recovery(); len(rec.Quarantined) != 0 || !strings.Contains(strings.Join(rec.Warnings, "\n"), "cannot quarantine") {
		t.Fatalf("recovery = %+v, want a cannot-quarantine warning and nothing moved", rec)
	}
	for _, sub := range []string{"summaries", "quarantine"} {
		if data, err := os.ReadFile(filepath.Join(dir, sub, name)); err != nil || string(data) != sub {
			t.Fatalf("%s/%s = %q (%v), want it untouched", sub, name, data, err)
		}
	}
}

// TestUnquarantinableManifestKept: a corrupt manifest that cannot be
// moved aside (quarantine/ is taken by a file) fails New. Rebuilding the
// manifest from the directory would write over it.
func TestUnquarantinableManifestKept(t *testing.T) {
	dir := t.TempDir()
	const corrupt = "{not a manifest"
	if err := os.WriteFile(manifestPath(dir), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "quarantine"), []byte("a file where the quarantine directory goes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StateDir: dir}, nil); err == nil {
		t.Error("New rebuilt over a manifest it could not quarantine")
	} else if !errors.Is(err, errManifestCorrupt) {
		t.Errorf("New: %v, want it to name the corrupt manifest", err)
	}
	if data, err := os.ReadFile(manifestPath(dir)); err != nil || string(data) != corrupt {
		t.Fatalf("manifest = %q (%v), want its bytes unchanged", data, err)
	}
}

// TestUnquarantinableNoveltyKept: an unreadable novelty snapshot that
// cannot be moved aside fails New. Dropped from the manifest, it would be
// swept as a stale snapshot and deleted.
func TestUnquarantinableNoveltyKept(t *testing.T) {
	dir := t.TempDir()
	nov := noveltyFileName(1)
	if err := writeManifest(dir, &manifest{Version: 1, Days: 1, Novelty: nov}); err != nil {
		t.Fatal(err)
	}
	const corrupt = "{not a snapshot"
	if err := os.WriteFile(filepath.Join(dir, nov), []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "quarantine"), []byte("a file where the quarantine directory goes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StateDir: dir}, nil); err == nil {
		t.Error("New went on without a novelty snapshot it could not quarantine")
	}
	if data, err := os.ReadFile(filepath.Join(dir, nov)); err != nil || string(data) != corrupt {
		t.Fatalf("%s = %q (%v), want its bytes unchanged", nov, data, err)
	}
}
