package source

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/pipeline"
)

// pointsIn collects the distinct point names (key stripped) of a trace.
func pointsIn(trace []faultinject.Hit) map[string]bool {
	seen := make(map[string]bool, len(trace))
	for _, h := range trace {
		name := h.Point
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		seen[name] = true
	}
	return seen
}

// requirePoints asserts every listed registered point was traversed.
func requirePoints(t *testing.T, seen map[string]bool, points ...faultinject.Point) {
	t.Helper()
	for _, p := range points {
		if !seen[string(p)] {
			t.Errorf("workload never traversed %s", p)
		}
	}
}

// checkpointWritePoints is both of a commit's write paths: the rename
// chain of a compaction and the two steps of a delta append.
var checkpointWritePoints = []faultinject.Point{
	faultinject.PointSourceCheckpointCreate,
	faultinject.PointSourceCheckpointWrite,
	faultinject.PointSourceCheckpointSync,
	faultinject.PointSourceCheckpointRename,
	faultinject.PointSourceCheckpointDirsync,
	faultinject.PointSourceCheckpointAppend,
	faultinject.PointSourceCheckpointAppendsync,
}

// requireBothWritePaths asserts the traced workload appended at least one
// delta frame and compacted at least once after its first commit (whose
// rename merely creates the file), so a crash enumeration over the trace
// covers both write paths.
func requireBothWritePaths(t *testing.T, trace []faultinject.Hit) {
	t.Helper()
	requirePoints(t, pointsIn(trace), checkpointWritePoints...)
	renames := 0
	for _, h := range trace {
		if strings.HasPrefix(h.Point, string(faultinject.PointSourceCheckpointRename)+":") {
			renames++
		}
	}
	if renames < 2 {
		t.Errorf("workload renamed the checkpoint %d time(s); it never compacted after its first commit", renames)
	}
}

// detectionWrites notes which of a commit's two write paths carried
// detection records in a workload's fault-free run.
type detectionWrites struct{ appended, compacted bool }

// commit commits e, noting the write path taken when a tick's detections
// were waiting to be saved. A nil receiver just commits.
func (w *detectionWrites) commit(e *Engine) error {
	e.mu.Lock()
	waiting := len(e.unsaved) > 0
	e.mu.Unlock()
	before := e.Stats().Compactions
	if err := e.Commit(); err != nil {
		return err
	}
	if w != nil && waiting {
		if e.Stats().Compactions > before {
			w.compacted = true
		} else {
			w.appended = true
		}
	}
	return nil
}

// requireBoth asserts the workload both appended and compacted frames that
// carry detections, so its crash enumeration covers the new section on
// both write paths.
func (w *detectionWrites) requireBoth(t *testing.T) {
	t.Helper()
	if !w.appended || !w.compacted {
		t.Errorf("workload wrote detections by append: %v, by compaction: %v; want both", w.appended, w.compacted)
	}
}

// restartUntilDone runs workload under the scheduler's crash conversion,
// "rebooting" after each simulated death, until a run completes without
// crashing. Returns the last run's error.
func restartUntilDone(t *testing.T, workload func() error) error {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if attempt > 50 {
			t.Fatal("workload did not converge within 50 restarts")
		}
		crash, err := faultinject.Run(workload)
		if crash == nil {
			return err
		}
	}
}

// TestCrashAtEveryEnginePointConverges is the convergence anchor for the
// durable core: a workload of Apply/Commit/Tick is first run fault-free
// to enumerate every injection point it traverses, then re-run once per
// traversal with a simulated process death (kill -9) scheduled exactly
// there. After each death the engine is reopened from the state directory
// and the workload replays from the committed positions — the final
// detection report, watermark and late-drop accounting must equal the
// uninterrupted run's, every time.
func TestCrashAtEveryEnginePointConverges(t *testing.T) {
	tr := smallTrace(t)
	recs := tr.Records
	if len(recs) > 1200 {
		recs = recs[:1200]
	}
	events := recordsToEvents(recs)
	// Deterministically disorder the stream so some events arrive later
	// than the watermark allows: pull two old events far forward, past at
	// least one commit, so the late-drop path must replay exactly.
	moveLate := func(from, to int) {
		ev := events[from]
		copy(events[from:to], events[from+1:to+1])
		events[to] = ev
	}
	moveLate(50, 650)
	moveLate(450, 1050)
	pcfg := testPipelineCfg(t, tr.Catalog[:50])
	ecfg := func(dir string) Config {
		return Config{StateDir: dir, Lateness: 300, Pipeline: pcfg}
	}

	// workload opens (or reopens) the engine at dir, replays the source
	// from its committed position in fixed batches with a commit after
	// every odd batch and a tick after every even one, and finishes with a
	// final commit. The file's creation aside, every commit has a tick's
	// detections to save, and they land by append and by the compaction the
	// doubled log triggers.
	workload := func(dir string, noted *detectionWrites) func() error {
		return func() error {
			eng, err := OpenEngine(ecfg(dir))
			if err != nil {
				return err
			}
			const batch = 128
			n := 0
			pos := eng.Position("s")
			for int(pos.Records) < len(events) {
				end := int(pos.Records) + batch
				if end > len(events) {
					end = len(events)
				}
				chunk := events[pos.Records:end]
				pos.Records = int64(end)
				eng.Apply(Batch{Source: "s", Events: chunk, Pos: pos})
				if n++; n%2 == 1 {
					if err := noted.commit(eng); err != nil {
						return err
					}
				} else if _, err := eng.Tick(context.Background()); err != nil {
					return err
				}
			}
			return noted.commit(eng)
		}
	}
	finalState := func(dir string) (*pipeline.Result, Stats) {
		eng, err := OpenEngine(ecfg(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(eng.Recovery().Quarantined) != 0 {
			t.Fatalf("converged state needed quarantine: %+v", eng.Recovery())
		}
		res, err := eng.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Result, eng.Stats()
	}

	// Fault-free enumeration run.
	clean := faultinject.New(1)
	SetFaultHook(clean.Hook())
	defer SetFaultHook(nil)
	cleanDir := t.TempDir()
	var noted detectionWrites
	if err := workload(cleanDir, &noted)(); err != nil {
		t.Fatal(err)
	}
	want, wantStats := finalState(cleanDir)
	requireBothWritePaths(t, clean.Trace())
	noted.requireBoth(t)
	requirePoints(t, pointsIn(clean.Trace()),
		faultinject.PointSourceCommitDone,
		faultinject.PointSourceDetectTick,
	)
	total := clean.TotalHits()
	if total == 0 {
		t.Fatal("no injection points traversed; crash enumeration is vacuous")
	}
	if wantStats.LateDropped == 0 {
		t.Fatal("workload dropped no late events; watermark replay is unexercised")
	}
	if wantStats.DetectionsRestored == 0 {
		t.Fatal("the converged log restored no detection; the final tick adopts nothing")
	}

	// One run per traversal, dying exactly there.
	for n := 1; n <= total; n++ {
		sched := faultinject.New(1)
		sched.CrashAtGlobalHit(n)
		SetFaultHook(sched.Hook())
		dir := t.TempDir()
		if err := restartUntilDone(t, workload(dir, nil)); err != nil {
			t.Fatalf("crash at hit %d: workload failed after restart: %v", n, err)
		}
		// Verification reopens and ticks outside the fault schedule: the
		// enumerated crash already fired (or the workload finished first).
		SetFaultHook(nil)
		got, gotStats := finalState(dir)
		sameAnalysis(t, fmt.Sprintf("crash at hit %d", n), got, want)
		if gotStats.Events != wantStats.Events || gotStats.Watermark != wantStats.Watermark ||
			gotStats.LateDropped != wantStats.LateDropped {
			t.Fatalf("crash at hit %d: state diverged:\n got %+v\nwant %+v", n, gotStats, wantStats)
		}
	}
}

// TestCrashAtEveryFollowerPointConverges extends the enumeration across
// the file follower: the workload tails a log file (including a rotation
// mid-stream) into the engine, dies at the traversed source.* points,
// restarts from the committed checkpoint, and must still converge to the
// batch pipeline's report over the same records.
func TestCrashAtEveryFollowerPointConverges(t *testing.T) {
	tr := smallTrace(t)
	recs := tr.Records
	if len(recs) > 2400 {
		recs = recs[:2400]
	}
	pcfg := testPipelineCfg(t, tr.Catalog[:50])
	want, err := pipeline.Run(context.Background(), recs, nil, pcfg)
	if err != nil {
		t.Fatal(err)
	}

	half := len(recs) / 2
	part1, part2 := recordLines(recs[:half]), recordLines(recs[half:])
	total := int64(len(recs))

	workload := func(stateDir, logDir string, noted *detectionWrites) func() error {
		logPath := filepath.Join(logDir, "proxy.log")
		rotated := false
		return func() error {
			if !rotated {
				// (Re)start before the rotation happened: the first half is
				// the live file. Rewriting it idempotently (same path, same
				// content, O_TRUNC keeps the inode) keeps restarts consistent
				// with the committed offsets.
				writeFile(t, logPath, part1)
			}
			eng, err := OpenEngine(Config{StateDir: stateDir, Pipeline: pcfg})
			if err != nil {
				return err
			}
			if eng.Stats().Events >= total {
				// Everything already landed before the crash; just make sure
				// the final state is committed.
				return eng.Commit()
			}
			rotate := func(applied int64) error {
				if !rotated && applied >= int64(half) {
					if err := os.Rename(logPath, logPath+".1"); err != nil {
						return err
					}
					rotated = true
					writeFile(t, logPath, part2)
				}
				return nil
			}
			// A crash can land after the first half committed but before the
			// rotation fired; with no further deliveries due from the old
			// file, the trigger must also run at (re)start.
			if err := rotate(eng.Stats().Events); err != nil {
				return err
			}
			fol := &FileFollower{Path: logPath, SourceName: "proxy",
				PollInterval: time.Millisecond, MaxBatch: 128}
			// Committing on every delivery pins the invariant the rotation
			// script relies on: the rotation only happens after the whole
			// first half is durable, so a crash after it never strands
			// committed-but-unread tail in the rotated-away file. The
			// tick after each delivery gives the next commit detections to
			// save.
			sink := &engineSink{eng: eng, commitEvery: 1, tickEvery: 1, stopAt: total, script: rotate, noted: noted}
			err = fol.Run(context.Background(), eng.Position("proxy"), sink)
			if errors.Is(err, sinkStop{}) {
				return eng.Commit()
			}
			return err
		}
	}
	finalReport := func(stateDir string) *pipeline.Result {
		eng, err := OpenEngine(Config{StateDir: stateDir, Pipeline: pcfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.Stats().Events; got != total {
			t.Fatalf("converged engine holds %d events, want %d", got, total)
		}
		res, err := eng.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}

	// Fault-free enumeration.
	clean := faultinject.New(1)
	SetFaultHook(clean.Hook())
	defer SetFaultHook(nil)
	cleanState := t.TempDir()
	var noted detectionWrites
	if err := workload(cleanState, t.TempDir(), &noted)(); err != nil {
		t.Fatal(err)
	}
	sameAnalysis(t, "uncrashed run", finalReport(cleanState), want)
	requireBothWritePaths(t, clean.Trace())
	noted.requireBoth(t)
	requirePoints(t, pointsIn(clean.Trace()),
		faultinject.PointSourceFollowOpen,
		faultinject.PointSourceFollowRead,
		faultinject.PointSourceFollowRotate,
	)

	// The read loop traverses source.follow.read once per read; crashing at
	// every single hit would repeat near-identical coverage. Crash at every
	// durability-critical hit (the whole checkpoint chain, rotation,
	// truncation) and at the first/middle/last traversal of the rest.
	hits := crashWorthyHits(clean.Trace())
	if len(hits) == 0 {
		t.Fatal("no crash-worthy hits enumerated")
	}
	totalHits := clean.TotalHits()
	for _, n := range hits {
		if n > totalHits {
			continue
		}
		t.Logf("crash at global hit %d", n)
		sched := faultinject.New(1)
		sched.CrashAtGlobalHit(n)
		SetFaultHook(sched.Hook())
		stateDir := t.TempDir()
		if err := restartUntilDone(t, workload(stateDir, t.TempDir(), nil)); err != nil {
			t.Fatalf("crash at hit %d: workload failed after restart: %v", n, err)
		}
		SetFaultHook(nil)
		sameAnalysis(t, fmt.Sprintf("crash at hit %d", n), finalReport(stateDir), want)
	}
}

// crashWorthyHits picks, from a trace, the global hit numbers worth
// crashing at: every hit of the checkpoint's two write paths, the rotation
// and truncation windows, plus the first, a middle, and the last traversal
// of each other point.
func crashWorthyHits(trace []faultinject.Hit) []int {
	everyHit := map[string]bool{
		string(faultinject.PointSourceCommitDone):     true,
		string(faultinject.PointSourceFollowRotate):   true,
		string(faultinject.PointSourceFollowTruncate): true,
	}
	for _, p := range checkpointWritePoints {
		everyHit[string(p)] = true
	}
	perPoint := make(map[string][]int)
	for i, h := range trace {
		name := h.Point
		if j := strings.IndexByte(name, ':'); j >= 0 {
			name = name[:j]
		}
		perPoint[name] = append(perPoint[name], i+1)
	}
	var out []int
	for name, ns := range perPoint {
		if everyHit[name] {
			out = append(out, ns...)
			continue
		}
		out = append(out, ns[0], ns[len(ns)/2], ns[len(ns)-1])
	}
	return out
}

// engineSink applies follower batches straight into an engine, committing
// every commitEvery batches and then ticking every tickEvery, running the
// test's mutation script after that, and ending the run with sinkStop once
// stopAt events are in.
type engineSink struct {
	eng         *Engine
	commitEvery int
	tickEvery   int
	stopAt      int64
	n           int
	script      func(applied int64) error
	noted       *detectionWrites
}

func (s *engineSink) Deliver(b Batch) error {
	s.eng.Apply(b)
	if s.n++; s.commitEvery > 0 && s.n%s.commitEvery == 0 {
		if err := s.noted.commit(s.eng); err != nil {
			return err
		}
	}
	if s.tickEvery > 0 && s.n%s.tickEvery == 0 {
		if _, err := s.eng.Tick(context.Background()); err != nil {
			return err
		}
	}
	applied := s.eng.Stats().Events
	if s.script != nil {
		if err := s.script(applied); err != nil {
			return err
		}
	}
	if s.stopAt > 0 && applied >= s.stopAt {
		return sinkStop{}
	}
	return nil
}

func (s *engineSink) Alive() {}
