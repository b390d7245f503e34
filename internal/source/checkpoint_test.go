package source

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/faultinject"
	"baywatch/internal/stats"
)

// pairEvents is one pair's history as a test compares it: the events in
// arrival order and the parallel paths (nil when every event is
// path-less).
type pairEvents struct {
	TS    []int64
	Paths []string
}

// storedDetection is a pair's standing detection as a test compares it:
// the result and how many of the pair's events it covers.
type storedDetection struct {
	Covered int
	Result  *core.Result
}

// engineState is everything a checkpoint must carry across a restart.
// Detections holds only the detections that answer for their pair's whole
// history — the ones a commit writes and a restart hands to its first tick.
type engineState struct {
	Pairs                                  map[pairKey]pairEvents
	Detections                             map[pairKey]storedDetection
	Pos                                    map[string]Position
	Watermark, MaxTS, LateDropped, Evicted int64
	Events                                 int64
}

// stateOf copies the engine's durable-relevant state, checking on the way
// that the maintained event total (Stats is O(1)) equals a walk of the
// store and that paths stay parallel to ts.
func stateOf(t testing.TB, e *Engine) engineState {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	st := engineState{
		Pairs:      make(map[pairKey]pairEvents, len(e.pairs)),
		Detections: make(map[pairKey]storedDetection),
		Pos:        make(map[string]Position, len(e.pos)),
		Watermark:  e.watermark, MaxTS: e.maxTS, LateDropped: e.lateDropped, Evicted: e.evictedCount,
		Events: e.events,
	}
	var walked int64
	for k, h := range e.pairs {
		if h.paths != nil && len(h.paths) != len(h.ts) {
			t.Fatalf("pair %s: %d paths for %d events", k, len(h.paths), len(h.ts))
		}
		walked += int64(len(h.ts))
		st.Pairs[k] = pairEvents{TS: append([]int64(nil), h.ts...), Paths: append([]string(nil), h.paths...)}
		if det := h.detection(); det != nil {
			st.Detections[k] = storedDetection{Covered: h.detN, Result: det}
		}
	}
	if walked != e.events {
		t.Fatalf("maintained event total %d, store walk %d", e.events, walked)
	}
	for name, p := range e.pos {
		st.Pos[name] = p
	}
	return st
}

func requireSameState(t *testing.T, what string, got, want engineState) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for k, w := range want.Pairs {
		if g, ok := got.Pairs[k]; !ok {
			t.Errorf("%s: pair %s missing", what, k)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: pair %s = %+v, want %+v", what, k, g, w)
		}
	}
	for k := range got.Pairs {
		if _, ok := want.Pairs[k]; !ok {
			t.Errorf("%s: unexpected pair %s", what, k)
		}
	}
	for k, w := range want.Detections {
		if g, ok := got.Detections[k]; !ok {
			t.Errorf("%s: detection of %s missing", what, k)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: detection of %s = %d events %+v, want %d events %+v", what, k, g.Covered, g.Result, w.Covered, w.Result)
		}
	}
	for k := range got.Detections {
		if _, ok := want.Detections[k]; !ok {
			t.Errorf("%s: unexpected detection of %s", what, k)
		}
	}
	got.Pairs, want.Pairs, got.Detections, want.Detections = nil, nil, nil, nil
	t.Fatalf("%s: state diverged:\n got %+v\nwant %+v", what, got, want)
}

// reopenCopy opens an engine on a copy of dir's checkpoint, so looking at
// what a restart would see never disturbs the engine that owns dir.
func reopenCopy(t *testing.T, cfg Config) *Engine {
	t.Helper()
	data, err := os.ReadFile(checkpointPath(cfg.StateDir))
	if err != nil {
		t.Fatal(err)
	}
	return openOn(t, cfg, data)
}

// openOn opens an engine on a fresh directory holding data as its
// checkpoint.
func openOn(t *testing.T, cfg Config, data []byte) *Engine {
	t.Helper()
	cfg.StateDir = t.TempDir()
	if err := os.WriteFile(checkpointPath(cfg.StateDir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// frameExtents splits a well-formed log into its frames' byte lengths.
func frameExtents(t testing.TB, data []byte) []int {
	t.Helper()
	var out []int
	for off := 0; off < len(data); {
		_, _, extent, bad := parseFrame(data[off:])
		if bad != "" {
			t.Fatalf("log frame at byte %d: %s", off, bad)
		}
		out = append(out, extent)
		off += extent
	}
	return out
}

// requireLogBounded asserts the size contract of the log at dir — the
// file stays under twice its first frame plus the last delta — and that a
// freshly compacted (one-frame) file names none of the dead pairs.
func requireLogBounded(t *testing.T, dir string, dead ...string) {
	t.Helper()
	data, err := os.ReadFile(checkpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	frames := frameExtents(t, data)
	if len(frames) > 1 && len(data)-frames[len(frames)-1] >= 2*frames[0] {
		t.Fatalf("log is %d bytes in %d frames with a %d-byte first frame and a %d-byte last one: compaction overdue",
			len(data), len(frames), frames[0], frames[len(frames)-1])
	}
	if len(frames) == 1 {
		for _, name := range dead {
			if bytes.Contains(data, []byte(name)) {
				t.Fatalf("compacted checkpoint still names evicted pair %s", name)
			}
		}
	}
}

// TestDeltaLogMatchesCompaction is the log ≡ snapshot and adopt ≡ recompute
// differential. Two engines take the same seeded random sequence of batches
// (path-less pairs that later gain a path, duplicate and out-of-order
// timestamps, endpoints containing the key separator, all-skipped batches,
// resends), ticks, commits and retention evictions; one writes delta frames
// and compacts when its log doubles, the other is forced through a
// compaction at every commit, which is the whole-state snapshot this format
// replaced. After every step the two live engines agree; after every commit
// so do a restart from the delta log, a restart from the snapshot, and the
// live engine — on each pair's events and paths in arrival order, its
// stored detection, positions, watermark, maxTS, late-drop and eviction
// counts, the O(1) event total — and a tick of each of the three returns
// the analysis one batch run over the stored events returns, detections
// compared deeply, having sent the same number of pairs through the detect
// job: what the log hands a restart is what the engine that never stopped
// still holds, no more and no less.
func TestDeltaLogMatchesCompaction(t *testing.T) {
	pcfg := testPipelineCfg(t, nil)
	det := core.DefaultConfig()
	det.Permutations = 5 // four analyses per commit step; the verdicts only need to agree
	pcfg.Detector = det
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := func(dir string) Config {
				return Config{StateDir: dir, Lateness: 600, RetainWindows: 2, Pipeline: pcfg}
			}
			logCfg, snapCfg := cfg(t.TempDir()), cfg(t.TempDir())
			logEng, err := OpenEngine(logCfg)
			if err != nil {
				t.Fatal(err)
			}
			snapEng, err := OpenEngine(snapCfg)
			if err != nil {
				t.Fatal(err)
			}
			both := func(f func(e *Engine)) { f(logEng); f(snapEng) }

			hosts := []string{"h1", "h|2", "h3|", "h4"}
			dests := []string{"a.example", "b|c.example", "|d", "e.example", "f.example", "g.example"}
			paths := []string{"/gate.php", "/poll", "/a|b"}
			pos := map[string]Position{}
			last := map[string]Batch{}
			clock := int64(100000)
			commits, restored, redetected, periodic := 0, int64(0), 0, 0
			for step := 0; step < 70; step++ {
				name := []string{"s1", "s2"}[rng.Intn(2)]
				switch op := rng.Intn(12); {
				case op < 5:
					// A batch over a window of pairs that drifts with time, so
					// early pairs go idle and retention evicts them; paths only
					// start appearing later, so path-less histories backfill.
					n := 1 + rng.Intn(40)
					events := make([]Event, n)
					for i := range events {
						clock += int64(rng.Intn(60))
						pair := step/8 + rng.Intn(6)
						ev := Event{
							Source:      hosts[pair%len(hosts)],
							Destination: dests[pair%len(dests)],
							TS:          clock - int64(rng.Intn(5))*int64(rng.Intn(400)),
						}
						if pair%5 == 0 {
							// One pair in five beacons on a 60 s grid, so some
							// stored detections carry kept candidates and a GMM.
							ev.TS = clock - clock%60
						}
						if step > 15 && rng.Intn(3) == 0 {
							ev.Path = paths[rng.Intn(len(paths))]
						}
						events[i] = ev
					}
					p := pos[name]
					p.Records += int64(n)
					pos[name] = p
					b := Batch{Source: name, Events: events, Pos: p}
					last[name] = b
					both(func(e *Engine) { e.Apply(b) })
				case op < 6:
					p := pos[name]
					p.Skipped += 3
					p.Offset += 300
					pos[name] = p
					both(func(e *Engine) { e.Apply(Batch{Source: name, Skipped: 3, Pos: p}) })
				case op < 7:
					if b, ok := last[name]; ok {
						both(func(e *Engine) {
							if n := e.Apply(b); n != 0 {
								t.Fatalf("step %d: resend applied %d event(s)", step, n)
							}
						})
					}
				case op < 9:
					// A tick between commits: its detections are unsaved until
					// the next commit, and stale by then if the pair moved on.
					if logEng.Stats().Pairs == 0 {
						break
					}
					a, b := mustTick(t, logEng), mustTick(t, snapEng)
					sameAnalysis(t, fmt.Sprintf("step %d: live ticks", step), b.Result, a.Result)
					sameAnalysis(t, fmt.Sprintf("step %d: live tick vs batch", step), a.Result, batchOver(t, logEng))
				default:
					snapEng.suspect = true // every snapshot-side commit rewrites the state
					both(func(e *Engine) {
						if err := e.Commit(); err != nil {
							t.Fatalf("step %d: commit: %v", step, err)
						}
					})
					if logEng.Stats().Commits == 0 {
						break // nothing applied yet: an idle commit creates no file
					}
					commits++
					requireLogBounded(t, logCfg.StateDir)
					want := stateOf(t, logEng)
					fromLog, fromSnap := reopenCopy(t, logCfg), reopenCopy(t, snapCfg)
					requireSameState(t, fmt.Sprintf("step %d: restart from the log", step), stateOf(t, fromLog), want)
					requireSameState(t, fmt.Sprintf("step %d: restart from the snapshot", step), stateOf(t, fromSnap), want)
					if got := fromLog.Stats().DetectionsRestored; got != int64(len(want.Detections)) {
						t.Fatalf("step %d: restart reports %d detections restored, the live engine holds %d", step, got, len(want.Detections))
					}
					if fromSnap.Stats().DetectionsStale != 0 {
						t.Fatalf("step %d: a snapshot carried %d stale detection(s)", step, fromSnap.Stats().DetectionsStale)
					}
					restored += fromLog.Stats().DetectionsRestored
					if len(want.Pairs) > 0 {
						batch := batchOver(t, logEng)
						live := mustTick(t, logEng)
						mustTick(t, snapEng) // keep the two live engines in step
						sameAnalysis(t, fmt.Sprintf("step %d: live engine vs batch", step), live.Result, batch)
						for what, e := range map[string]*Engine{"the log": fromLog, "the snapshot": fromSnap} {
							got := mustTick(t, e)
							sameAnalysis(t, fmt.Sprintf("step %d: restart from %s vs batch", step, what), got.Result, batch)
							if got.Detected != live.Detected {
								t.Fatalf("step %d: restart from %s detected %d pair(s), the live engine %d",
									step, what, got.Detected, live.Detected)
							}
						}
						redetected += live.Detected
						periodic += batch.Stats.Periodic
					}
				}
				requireSameState(t, fmt.Sprintf("step %d: live engines", step), stateOf(t, snapEng), stateOf(t, logEng))
			}
			st := logEng.Stats()
			if commits < 5 || st.Compactions < 2 || st.Compactions >= st.Commits || st.Evicted == 0 || st.LateDropped == 0 ||
				restored == 0 || redetected == 0 || periodic == 0 {
				t.Fatalf("sequence too tame to mean anything: %d commit steps, %d detections restored, %d re-detected after a commit, %d periodic verdicts, stats %+v",
					commits, restored, redetected, periodic, st)
			}
		})
	}
}

// tornCfg is the engine configuration of the torn-tail tests and the replay
// fuzzer: a coarse scale and few permutations keep the tick each of their
// many recoveries ends with cheap.
func tornCfg(t testing.TB) Config {
	pcfg := testPipelineCfg(t, nil)
	pcfg.Detector = core.DefaultConfig()
	pcfg.Detector.Permutations = 3
	return Config{Lateness: 100000, Scale: 60, Pipeline: pcfg}
}

// threeFrameLog commits three batches, each after a tick — a large one that
// creates the file with every pair's detection in the snapshot frame, and
// two small ones that append the touched pairs' new events and new
// detections — and returns the log's bytes, its frame boundaries (0, end of
// frame 1, 2, 3), the state a restart must show after each frame, and the
// third batch for finishing a recovery. Every fourth event belongs to one
// beaconing pair, whose detection carries candidates, a kept period and a
// mixture model; the other pairs stay under the sampling floor, so the log
// is small enough to damage at every byte.
func threeFrameLog(t testing.TB, cfg Config) (data []byte, bounds [4]int, states [3]engineState, lastBatch Batch) {
	t.Helper()
	cfg.StateDir = t.TempDir()
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pos Position
	batch := func(n int, base int64) Batch {
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{
				Source:      fmt.Sprintf("h%d", i%7),
				Destination: fmt.Sprintf("d%d.example", i%5),
				TS:          base + int64(i)*30,
			}
			if i%4 == 0 {
				events[i].Source, events[i].Destination = "hb", "beacon.example"
			}
			if i%3 == 0 {
				events[i].Path = "/gate.php"
			}
		}
		pos.Records += int64(n)
		pos.Offset += int64(n) * 100
		return Batch{Source: "s", Events: events, Pos: pos}
	}
	for i, b := range []Batch{batch(120, 1000), batch(12, 8000), batch(9, 9000)} {
		eng.Apply(b)
		tr, err := eng.Tick(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{36, 10, 7}[i]; tr.Detected != want {
			t.Fatalf("tick %d detected %d pair(s), want %d", i+1, tr.Detected, want)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		states[i] = stateOf(t, eng)
		beacon := states[i].Detections[pairKey{Src: "hb", Dst: "beacon.example"}].Result
		if len(states[i].Detections) != 36 || beacon == nil || !beacon.Periodic || beacon.GMM == nil {
			t.Fatalf("commit %d leaves %d detections stored and %+v for the beacon, want every pair's 36 and a periodic verdict with its mixture",
				i+1, len(states[i].Detections), beacon)
		}
		lastBatch = b
	}
	data, err = os.ReadFile(checkpointPath(cfg.StateDir))
	if err != nil {
		t.Fatal(err)
	}
	frames := frameExtents(t, data)
	if len(frames) != 3 {
		t.Fatalf("log has %d frame(s), want 3 (one compaction, two appends)", len(frames))
	}
	bounds[1] = frames[0]
	bounds[2] = bounds[1] + frames[1]
	bounds[3] = bounds[2] + frames[2]
	return data, bounds, states, lastBatch
}

// TestTornTailTruncatedCorruptionQuarantined pins the line recovery draws
// between a crash and damage. Cutting the log anywhere inside its last
// frame, or damaging any byte of that frame, is a torn tail: the restart
// shows exactly the previous commit, warns once, quarantines nothing, cuts
// the file back to the last good frame, and after the source replays the
// gap the next commit and restart are complete. Damage to an earlier frame
// is corruption: quarantine, empty start. The frame's length field is the
// one place where the classification follows where the damaged length
// points — past the end of the file reads as a torn tail from that frame
// on, short of it as a bad frame followed by bytes — and the test holds the
// decoder to exactly that rule, so no damage ever yields a state that was
// never committed.
func TestTornTailTruncatedCorruptionQuarantined(t *testing.T) {
	cfg := tornCfg(t)
	data, bounds, states, lastBatch := threeFrameLog(t, cfg)
	t.Logf("frames end at %v", bounds)
	empty := engineState{Pairs: map[pairKey]pairEvents{}, Detections: map[pairKey]storedDetection{}, Pos: map[string]Position{}}

	// requireTorn checks a restart on damaged came back at the commit that
	// wrote frame `frames` (1-based) with the tail cut off.
	requireTorn := func(what string, damaged []byte, frames int) *Engine {
		t.Helper()
		e := openOn(t, cfg, damaged)
		rec := e.Recovery()
		if len(rec.Quarantined) != 0 || len(rec.Warnings) != 1 {
			t.Fatalf("%s: recovery = %+v, want one warning and no quarantine", what, rec)
		}
		requireSameState(t, what, stateOf(t, e), states[frames-1])
		fi, err := os.Stat(checkpointPath(e.cfg.StateDir))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(bounds[frames]) {
			t.Fatalf("%s: file is %d bytes after recovery, want the %d of its good frames", what, fi.Size(), bounds[frames])
		}
		return e
	}
	requireQuarantined := func(what string, damaged []byte) {
		t.Helper()
		e := openOn(t, cfg, damaged)
		rec := e.Recovery()
		if len(rec.Quarantined) != 1 || len(rec.Warnings) == 0 {
			t.Fatalf("%s: recovery = %+v, want the file quarantined", what, rec)
		}
		requireSameState(t, what, stateOf(t, e), empty)
		if _, err := os.Stat(checkpointPath(e.cfg.StateDir)); !os.IsNotExist(err) {
			t.Fatalf("%s: checkpoint still in place after quarantine (%v)", what, err)
		}
	}
	// finish replays the gap a torn third frame leaves — the tick detects
	// again exactly the pairs whose detections the frame held — and checks
	// the next commit and restart hold everything.
	finish := func(what string, e *Engine) {
		t.Helper()
		e.Apply(lastBatch)
		tr, err := e.Tick(context.Background())
		if err != nil {
			t.Fatalf("%s: tick after recovery: %v", what, err)
		}
		if tr.Detected != 7 {
			t.Fatalf("%s: tick after recovery detected %d pair(s), want the 7 the lost frame held detections of", what, tr.Detected)
		}
		if err := e.Commit(); err != nil {
			t.Fatalf("%s: commit after recovery: %v", what, err)
		}
		requireSameState(t, what+", recommitted and restarted", stateOf(t, reopenCopy(t, e.cfg)), states[2])
	}

	for cut := bounds[2] + 1; cut < bounds[3]; cut++ {
		what := fmt.Sprintf("cut at byte %d of %d", cut, bounds[3])
		finish(what, requireTorn(what, data[:cut], 2))
	}

	const lenField = len(frameMagic) + 1
	for off := 0; off < bounds[3]; off++ {
		damaged := append([]byte(nil), data...)
		damaged[off] ^= 0xFF
		frame := 0
		for off >= bounds[frame+1] {
			frame++
		}
		what := fmt.Sprintf("byte %d (frame %d) flipped", off, frame+1)
		end := bounds[frame+1] // where the damaged frame now claims to end
		if in := off - bounds[frame]; in >= lenField && in < frameHdrLen {
			n := binary.LittleEndian.Uint64(damaged[bounds[frame]+lenField:])
			if n > uint64(len(data)) {
				end = len(data) + 1
			} else {
				end = bounds[frame] + frameHdrLen + int(n) + frameCRCLen
			}
		}
		switch {
		case frame == 0 || end < len(data):
			requireQuarantined(what, damaged)
		case frame == 2:
			finish(what, requireTorn(what, damaged, 2))
		default:
			requireTorn(what, damaged, frame)
		}
	}

	// A valid frame of another version is not this program's to interpret.
	other := append([]byte(nil), data[:bounds[1]]...)
	other[len(frameMagic)] = checkpointVersion + 1
	binary.LittleEndian.PutUint32(other[len(other)-frameCRCLen:],
		crc32.ChecksumIEEE(other[len(frameMagic):len(other)-frameCRCLen]))
	requireQuarantined("unknown version", other)
	requireQuarantined("version-1 JSON checkpoint", []byte(`{"version":1,"sources":{"s":{"records":3}}}`))
	requireQuarantined("empty file", nil)

	// A frame whose checksum holds around content no commit writes is
	// damage too — it must not come up as a store that can never tick.
	fp := detectionFingerprint(cfg)
	sparse := mustEncodeResult(t, &core.Result{SeriesLen: 1, EventCount: 1, Undersampled: true})
	onePair := handPairs(handPair("h", "d", 1000))
	for what, payload := range map[string][]byte{
		"pair entry without events":              append(handPairs(handPair("h", "d")), handDetections(fp)...),
		"detection of an absent pair":            append(onePair, handDetections(fp, handDetection("h", "other", 1, sparse))...),
		"detection of more events than held":     append(onePair, handDetections(fp, handDetection("h", "d", 2, sparse))...),
		"detection of no events":                 append(onePair, handDetections(fp, handDetection("h", "d", 0, sparse))...),
		"detection with a lying candidate count": append(onePair, handDetections(fp, handDetection("h", "d", 1, hostileDetections(t)["2^60 candidates"]))...),
		"no detections section":                  onePair,
	} {
		requireQuarantined(what, testFrame(payload))
	}
	// The same shapes, well-formed: a detection under this engine's
	// fingerprint is restored, one under another is dropped without a word.
	for what, tc := range map[string]struct {
		fp              uint64
		restored, stale int64
	}{"own fingerprint": {fp, 1, 0}, "foreign fingerprint": {fp + 1, 0, 1}} {
		e := openOn(t, cfg, testFrame(append(onePair, handDetections(tc.fp, handDetection("h", "d", 1, sparse))...)))
		st, rec := e.Stats(), e.Recovery()
		if st.DetectionsRestored != tc.restored || st.DetectionsStale != tc.stale || len(rec.Warnings)+len(rec.Quarantined) != 0 {
			t.Fatalf("%s: restored %d, stale %d, recovery %+v; want %d, %d and nothing to repair",
				what, st.DetectionsRestored, st.DetectionsStale, rec, tc.restored, tc.stale)
		}
		if tr, err := e.Tick(context.Background()); err != nil || tr.Detected != int(tc.stale) {
			t.Fatalf("%s: first tick detected %d pair(s), err %v; want %d", what, tr.Detected, err, tc.stale)
		}
	}
}

// TestCommitWriteErrorForcesCompaction injects an error (not a crash) at
// each step of a delta append — a full disk. Commit returns it and
// changes nothing in memory, the daemon degrades, and because the tail of
// the file can no longer be trusted the next commit rewrites the whole
// state through the rename chain; a restart then holds everything.
func TestCommitWriteErrorForcesCompaction(t *testing.T) {
	diskFull := errors.New("disk full")
	for _, point := range []faultinject.Point{
		faultinject.PointSourceCheckpointAppend,
		faultinject.PointSourceCheckpointAppendsync,
	} {
		t.Run(string(point), func(t *testing.T) {
			cfg := Config{StateDir: t.TempDir(), Lateness: 50}
			var logged []string
			d, err := NewDaemon(DaemonConfig{
				Engine: cfg,
				Connectors: []Connector{
					&FileFollower{Path: filepath.Join(t.TempDir(), "absent.log"), SourceName: "s"},
				},
				Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			eng := d.Engine()
			events := retentionEvents(4, 6, 100, 60)
			applyAll(eng, "s", events[:60], 60)
			d.commit()
			applyAll(eng, "s", events, 10)
			before := eng.Stats()
			if d.Degraded() || before.Commits != 1 || before.Compactions != 1 {
				t.Fatalf("setup: degraded=%v stats=%+v, want one clean creating commit", d.Degraded(), before)
			}

			sched := faultinject.New(1)
			sched.FailAt(point.Keyed("checkpoint"), 1, diskFull)
			SetFaultHook(sched.Hook())
			defer SetFaultHook(nil)
			d.commit()
			SetFaultHook(nil)
			if !d.Degraded() || len(logged) != 1 || !strings.Contains(logged[0], diskFull.Error()) {
				t.Fatalf("degraded=%v log=%q, want the daemon degraded by the injected error", d.Degraded(), logged)
			}
			if after := eng.Stats(); after != before {
				t.Fatalf("failed commit moved the accounting:\n got %+v\nwant %+v", after, before)
			}

			if err := eng.Commit(); err != nil {
				t.Fatal(err)
			}
			after := eng.Stats()
			if after.Commits != 2 || after.Compactions != 2 || after.Uncommitted != 0 {
				t.Fatalf("stats after the retry = %+v, want a second commit that compacted", after)
			}
			if n := len(frameExtents(t, mustRead(t, checkpointPath(cfg.StateDir)))); n != 1 {
				t.Fatalf("checkpoint has %d frames after the retry, want the one compacted frame", n)
			}
			requireSameState(t, "restart after the retry", stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
		})
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestIdleCommitTouchesNoDisk: a commit with nothing to persist — no pair
// touched, nothing evicted, the header where the last frame left it —
// neither opens nor writes the checkpoint, on a fresh engine, a running
// one and a restarted one. A batch of only skipped lines is not nothing:
// it moves the source's position, which the next commit must record.
func TestIdleCommitTouchesNoDisk(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 3}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var traversed []string
	SetFaultHook(func(point string) error {
		traversed = append(traversed, point)
		return nil
	})
	defer SetFaultHook(nil)
	idle := func(what string, e *Engine) {
		t.Helper()
		before := e.Stats()
		fi, statErr := os.Stat(checkpointPath(cfg.StateDir))
		traversed = nil
		for i := 0; i < 3; i++ {
			if err := e.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if len(traversed) != 0 || e.Stats() != before {
			t.Fatalf("%s: idle commits did work: fault points %v, stats %+v -> %+v", what, traversed, before, e.Stats())
		}
		fi2, statErr2 := os.Stat(checkpointPath(cfg.StateDir))
		if (statErr == nil) != (statErr2 == nil) {
			t.Fatalf("%s: idle commits changed whether the checkpoint exists (%v -> %v)", what, statErr, statErr2)
		}
		if statErr == nil && (fi2.Size() != fi.Size() || !fi2.ModTime().Equal(fi.ModTime())) {
			t.Fatalf("%s: idle commits rewrote the checkpoint: %d bytes @%v -> %d bytes @%v",
				what, fi.Size(), fi.ModTime(), fi2.Size(), fi2.ModTime())
		}
	}

	idle("fresh engine", eng)
	if _, err := os.Stat(checkpointPath(cfg.StateDir)); !os.IsNotExist(err) {
		t.Fatalf("an empty engine's commit created a checkpoint (%v)", err)
	}
	events := retentionEvents(3, 4, 300, 101)
	applyAll(eng, "s", events, 50)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // so a rewrite could not hide inside the mtime's granularity
	idle("after a commit", eng)

	pos := eng.Position("s")
	pos.Skipped, pos.Offset = pos.Skipped+5, pos.Offset+512
	eng.Apply(Batch{Source: "s", Skipped: 5, Pos: pos})
	before := eng.Stats()
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := eng.Stats(); after.Commits != before.Commits+1 {
		t.Fatalf("an all-skipped batch's position was not committed: %+v -> %+v", before, after)
	}
	time.Sleep(5 * time.Millisecond)
	idle("after the all-skipped batch", eng)

	restarted, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := restarted.Position("s"); got != pos {
		t.Fatalf("restarted position = %+v, want %+v", got, pos)
	}
	idle("restarted engine", restarted)
}

// standingStore opens an engine holding pairs × eventsPer path-less
// events, applied but not committed.
func standingStore(tb testing.TB, pairs, eventsPer int) *Engine {
	tb.Helper()
	eng, err := OpenEngine(Config{StateDir: tb.TempDir()})
	if err != nil {
		tb.Fatal(err)
	}
	events := make([]Event, 0, pairs*eventsPer)
	for i := 0; i < pairs; i++ {
		src, dst := fmt.Sprintf("h%d", i), fmt.Sprintf("d%d.example", i)
		for j := 0; j < eventsPer; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: 1000 + int64(j)*60})
		}
	}
	eng.Apply(Batch{Source: "s", Events: events, Pos: Position{Records: int64(len(events))}})
	return eng
}

// applyDelta lands perPair new events on each of n consecutive pairs of a
// standingStore, starting at pair first (wrapping) — one commit
// interval's worth of traffic.
func applyDelta(eng *Engine, pairs, first, n, perPair int, ts int64) {
	events := make([]Event, 0, n*perPair)
	for i := 0; i < n; i++ {
		p := (first + i) % pairs
		src, dst := fmt.Sprintf("h%d", p), fmt.Sprintf("d%d.example", p)
		for j := 0; j < perPair; j++ {
			events = append(events, Event{Source: src, Destination: dst, TS: ts + int64(j)*60})
		}
	}
	pos := eng.Position("s")
	pos.Records += int64(len(events))
	eng.Apply(Batch{Source: "s", Events: events, Pos: pos})
}

// TestCommitCostIndependentOfStoreSize: a commit's bytes follow the
// traffic since the last commit, not the store. 5000 events onto a
// 100k-pair store append under 1% of what writing that store took.
func TestCommitCostIndependentOfStoreSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-pair store")
	}
	const pairs = 100000
	eng := standingStore(t, pairs, 16)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	first := eng.Stats()
	applyDelta(eng, pairs, 777, 500, 10, 5000)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	delta := st.CommitBytes - first.CommitBytes
	if st.Compactions != 1 || st.Commits != 2 {
		t.Fatalf("stats = %+v, want the second commit to append", st)
	}
	if delta <= 0 || delta*100 >= first.CommitBytes {
		t.Fatalf("a 5000-event commit wrote %d bytes onto a %d-byte first frame, want under 1%%", delta, first.CommitBytes)
	}
	fi, err := os.Stat(checkpointPath(eng.cfg.StateDir))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != st.CommitBytes {
		t.Fatalf("checkpoint is %d bytes, Stats.CommitBytes says %d were written", fi.Size(), st.CommitBytes)
	}
}

// testFrame seals payload as a frame of the current version.
func testFrame(payload []byte) []byte {
	return sealFrame(append(make([]byte, frameHdrLen), payload...))
}

// The hand* helpers assemble frame payloads no engine would write.
// handPairs starts one: no sources, a zero header, no evictions, then the
// given pair entries. handDetections is the section that ends it; the
// result is clipped, so appending two different endings to one start never
// shares a backing array.
func handPairs(entries ...[]byte) []byte {
	out := binary.AppendUvarint([]byte{0, 0, 0, 0, 0, 0}, uint64(len(entries)))
	for _, e := range entries {
		out = append(out, e...)
	}
	return slices.Clip(out)
}

// handPair is a path-less pair entry with the given timestamps.
func handPair(src, dst string, ts ...int64) []byte {
	out := appendString(appendString(nil, src), dst)
	out = append(binary.AppendUvarint(out, uint64(len(ts))), 0)
	prev := int64(0)
	for _, v := range ts {
		out = binary.AppendVarint(out, v-prev)
		prev = v
	}
	return out
}

func handDetections(fingerprint uint64, records ...[]byte) []byte {
	out := binary.AppendUvarint(binary.LittleEndian.AppendUint64(nil, fingerprint), uint64(len(records)))
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}

func handDetection(src, dst string, covered uint64, result []byte) []byte {
	out := appendString(appendString(nil, src), dst)
	return append(binary.AppendUvarint(out, covered), result...)
}

func mustEncodeResult(t testing.TB, r *core.Result) []byte {
	t.Helper()
	enc, err := core.AppendResult(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// hostileDetections are encoded results that lie about their counts or
// point outside themselves, plus two honest ones full of non-finite floats.
func hostileDetections(t testing.TB) map[string][]byte {
	head := append([]byte{0, 2, 2}, make([]byte, 8)...) // flags, SeriesLen, EventCount, PowerThreshold
	cand := core.Candidate{Origin: core.OriginGMM, Period: 60, PValue: math.NaN(), Power: math.Inf(1), ACFScore: math.Inf(-1)}
	kept := mustEncodeResult(t, &core.Result{Periodic: true, Candidates: []core.Candidate{cand}, Kept: []core.Candidate{cand}, PowerThreshold: math.Inf(1)})
	outOfRange := append([]byte(nil), kept...)
	outOfRange[len(outOfRange)-1] = 1 // the single Kept index, last byte of a GMM-less result
	model := &core.Result{GMM: &stats.GMMSelection{K: 1, BICs: []float64{math.NaN()}, Best: &stats.GMM{
		Weights: []float64{1}, Means: []float64{math.Inf(1)}, StdDevs: []float64{0}, LogLikelihood: math.Inf(-1),
	}}}
	return map[string][]byte{
		"2^60 candidates":         binary.AppendUvarint(append([]byte(nil), head...), 1<<60),
		"2^40 kept":               binary.AppendUvarint(append(append([]byte(nil), head...), 0), 1<<40),
		"kept index out of range": outOfRange,
		"2^50 mixture weights":    binary.AppendUvarint(append(append([]byte(nil), head...), 0, 0, 2, 0), 1<<50),
		"non-finite candidate":    kept,
		"non-finite mixture":      mustEncodeResult(t, model),
	}
}

// FuzzCheckpointReplay feeds arbitrary bytes to recovery's decoder, both
// as a whole log and — since a random input almost never carries a valid
// CRC — as one frame's payload. Replay must not panic, must not allocate
// more than a small multiple of its input (every count is checked against
// the bytes present before anything is sized from it), and whatever it
// accepts must be a coherent store that a tick can analyze.
func FuzzCheckpointReplay(f *testing.F) {
	cfg := tornCfg(f)
	data, bounds, _, _ := threeFrameLog(f, cfg)
	f.Add(data)
	f.Add(data[:bounds[3]-7])                        // torn tail
	f.Add(data[:bounds[1]])                          // one compacted frame
	f.Add(data[frameHdrLen : bounds[1]-frameCRCLen]) // a bare payload
	hostile := binary.AppendUvarint(nil, 1<<60)      // 2^60 sources
	f.Add(testFrame(hostile))
	hostile = append([]byte{0, 0, 0, 0, 0, 0}, binary.AppendUvarint(nil, 1)...) // header, no evictions, one pair
	hostile = append(hostile, 1, 'h', 1, 'd')
	hostile = append(binary.AppendUvarint(hostile, 1<<40), 0) // 2^40 events
	f.Add(testFrame(hostile))
	f.Add([]byte(`{"version":1}`))
	fp := detectionFingerprint(cfg)
	f.Add(testFrame(append(handPairs(handPair("h", "d")), handDetections(fp)...))) // a pair entry without events
	beacon := handPairs(handPair("h", "d", 1000, 1060, 1120, 1180, 1240, 1300, 1360, 1420, 1480))
	hostileResults := hostileDetections(f)
	names := make([]string, 0, len(hostileResults))
	for name := range hostileResults {
		names = append(names, name)
	}
	sort.Strings(names) // seed#N names the same input in every run
	for _, name := range names {
		result := hostileResults[name]
		f.Add(append(beacon, handDetections(fp, handDetection("h", "d", 9, result))...))
		f.Add(append(beacon, handDetections(fp+1, handDetection("h", "d", 9, result))...)) // a fingerprint that does not match
	}
	f.Add(append(beacon, handDetections(fp, handDetection("h", "d", 1<<40, nil))...))                // covers 2^40 events
	f.Add(append(beacon, binary.AppendUvarint(binary.LittleEndian.AppendUint64(nil, fp), 1<<60)...)) // 2^60 detections

	f.Fuzz(func(t *testing.T, in []byte) {
		asLog, asPayload := newEngine(cfg), newEngine(cfg)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		good, first, logErr := replayLog(in, asLog.replayFrame)
		payloadErr := asPayload.replayFrame(in)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(in)+64<<10); grew > limit {
			t.Fatalf("replaying %d bytes allocated %d (limit %d)", len(in), grew, limit)
		}
		if good < 0 || good > int64(len(in)) || first > good {
			t.Fatalf("replayLog reports %d good / %d first bytes of %d", good, first, len(in))
		}
		for e, err := range map[*Engine]error{asLog: logErr, asPayload: payloadErr} {
			if err != nil {
				if !errors.Is(err, errCheckpointCorrupt) {
					t.Fatalf("replay error does not wrap errCheckpointCorrupt: %v", err)
				}
				continue
			}
			for k, h := range e.pairs {
				if h.committed != len(h.ts) {
					t.Fatalf("pair %s: %d of %d replayed events marked durable", k, h.committed, len(h.ts))
				}
				if h.detN < 0 || h.detN > len(h.ts) {
					t.Fatalf("pair %s: detection covers %d of %d events", k, h.detN, len(h.ts))
				}
			}
			stateOf(t, e)
			e.replayed()
			if len(e.pairs) > 0 {
				if _, err := e.Tick(context.Background()); err != nil {
					t.Fatalf("a store that replayed cleanly does not tick: %v", err)
				}
			}
		}
	})
}

// TestRetentionBoundsCheckpoint pins what retention promises of the file
// now that evictions ride in delta frames: a restart never resurrects an
// evicted pair; the log stays under twice its first frame plus the last
// delta however many pairs churn through; and every compaction leaves a
// file naming live pairs only, so its size tracks active traffic, not
// lifetime traffic.
func TestRetentionBoundsCheckpoint(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 2}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := retentionEvents(6, 4, 200, 151) // horizon 200s; beacon to 5500
	var dead []string
	compacted := int64(0)
	for applied := 0; applied < len(events); {
		applied = min(applied+15, len(events))
		applyAll(eng, "s", events[:applied], 15)
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		dead = dead[:0]
		for i := 0; i < 6; i++ {
			if len(eng.HostTimeline(fmt.Sprintf("h-old-%d", i))) == 0 {
				dead = append(dead, fmt.Sprintf("old%d.example", i))
			}
		}
		requireLogBounded(t, cfg.StateDir, dead...)
		if st.Compactions > compacted {
			compacted = st.Compactions
			if !bytes.Contains(mustRead(t, checkpointPath(cfg.StateDir)), []byte("beacon.example")) {
				t.Fatal("compacted checkpoint lost the live pair")
			}
		}
		requireSameState(t, fmt.Sprintf("restart after %d events", applied), stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
	}
	st := eng.Stats()
	if st.Pairs != 1 || st.Evicted != 6 {
		t.Errorf("stats = %+v, want 1 pair / 6 evicted", st)
	}
	if st.Compactions < 2 || st.Compactions == st.Commits {
		t.Errorf("stats = %+v, want evictions committed by both appends and compactions", st)
	}
}
