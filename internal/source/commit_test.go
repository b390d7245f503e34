package source

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// TestCommitHangLeavesEngineLive: a commit parked in its fsync — a delta
// append's or a compaction's — holds nothing that Apply, Tick or the
// readers wait for. While it hangs, batches keep landing and count as
// uncommitted, a tick runs, and Position and Stats answer. Released, the
// hang fails the commit; the next one rewrites the checkpoint, and a
// restart reads back the live store.
func TestCommitHangLeavesEngineLive(t *testing.T) {
	for _, point := range []faultinject.Point{
		faultinject.PointSourceCheckpointAppendsync,
		faultinject.PointSourceCheckpointSync,
	} {
		t.Run(string(point), func(t *testing.T) {
			cfg := Config{StateDir: t.TempDir(), Lateness: 100, Pipeline: testPipelineCfg(t, nil)}
			eng, err := OpenEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			events := retentionEvents(4, 6, 100, 300)
			applyAll(eng, "s", events[:100], 20)
			if point == faultinject.PointSourceCheckpointAppendsync {
				// The first commit creates the file by rename; the second
				// appends.
				if err := eng.Commit(); err != nil {
					t.Fatal(err)
				}
				applyAll(eng, "s", events[:150], 20)
			}
			sched := faultinject.New(1)
			sched.HangAt(point.Keyed("checkpoint"), 1)
			defer faultinject.Install(sched.Hook())()
			defer sched.ReleaseHangs()

			before := eng.Stats()
			committed := make(chan error, 1)
			// bounded goroutine: the parked commit, released by ReleaseHangs and awaited on committed
			go func() { committed <- eng.Commit() }()
			waitUntil(t, 10*time.Second, "the commit parks in its fsync", func() bool { return sched.ActiveHangs() == 1 })

			landed := make(chan struct{})
			// bounded goroutine: batches applied while the commit is parked, awaited on landed
			go func() {
				defer close(landed)
				applyAll(eng, "s", events[:250], 20)
			}()
			select {
			case <-landed:
			case <-time.After(10 * time.Second):
				t.Fatal("Apply waits on the parked commit")
			}
			if got, want := eng.Uncommitted(), before.Uncommitted+250-before.Events; got != want {
				t.Fatalf("uncommitted = %d while the commit hangs, want %d", got, want)
			}
			if got := eng.Position("s").Records; got != 250 {
				t.Fatalf("position = %d while the commit hangs, want 250", got)
			}
			if _, err := eng.Tick(context.Background()); err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.Ticks != before.Ticks+1 || st.Commits != before.Commits || st.Events != 250 {
				t.Fatalf("stats while the commit hangs = %+v, want one more tick, no more commits and 250 events", st)
			}
			select {
			case err := <-committed:
				t.Fatalf("the parked commit returned (%v) before its release", err)
			default:
			}

			sched.ReleaseHangs()
			if err := <-committed; err == nil {
				t.Fatal("the released hang did not fail its commit")
			}
			if st := eng.Stats(); st.Commits != before.Commits || st.Uncommitted != 250-before.Events+before.Uncommitted {
				t.Fatalf("stats after the failed commit = %+v, want nothing installed", st)
			}
			if err := eng.Commit(); err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); st.Commits != before.Commits+1 || st.Compactions != before.Compactions+1 || st.Uncommitted != 0 {
				t.Fatalf("stats after the retry = %+v, want one more commit, a compaction", st)
			}
			requireSameState(t, "restart after the released hang", stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
		})
	}
}

// TestBatchDecidedByFrameInFlightWaits: a batch whose fate the frame
// being written decides — an event the frame's watermark drops and the
// current one keeps, or an event for a pair the frame evicts — waits
// until the frame installs or fails, while a batch the frame does not
// concern lands at once. Installed, the late event is dropped and the
// evicted pair's event starts a fresh pair; failed, both land as they
// would have before the commit. Either way a crash right after, with the
// sources replayed from the checkpointed positions, rebuilds the live
// store exactly.
func TestBatchDecidedByFrameInFlightWaits(t *testing.T) {
	for _, tc := range []struct {
		name    string
		waiting Event
	}{
		// W0 = 1000 < 4500 <= W1 = 4900.
		{"late", Event{Source: "h2", Destination: "other.example", TS: 4500}},
		// Above W1, but for the pair the frame evicts (maxTS 1100 <= 4800).
		{"evicted", Event{Source: "h", Destination: "old.example", TS: 4950}},
	} {
		for _, fail := range []bool{false, true} {
			name := tc.name + "/installed"
			if fail {
				name = tc.name + "/failed"
			}
			t.Run(name, func(t *testing.T) {
				cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 2}
				eng, err := OpenEngine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				streams := map[string][]Event{
					"s": {
						{Source: "h", Destination: "old.example", TS: 1000},
						{Source: "h", Destination: "old.example", TS: 1100},
						{Source: "h2", Destination: "other.example", TS: 5000},
						tc.waiting,
					},
					"t": {{Source: "h3", Destination: "new.example", TS: 5100}},
				}
				applyAll(eng, "s", streams["s"][:2], 2)
				if err := eng.Commit(); err != nil {
					t.Fatal(err)
				}
				applyAll(eng, "s", streams["s"][:3], 1)
				before := eng.Stats()

				appendsync := string(faultinject.PointSourceCheckpointAppendsync.Keyed("checkpoint"))
				parked, release := make(chan struct{}), make(chan struct{})
				defer faultinject.Install(func(point string) error {
					if point != appendsync {
						return nil
					}
					close(parked)
					<-release
					if fail {
						return errors.New("injected fsync failure")
					}
					return nil
				})()
				committed := make(chan error, 1)
				// bounded goroutine: the commit parked before its fsync, released by the test and awaited on committed
				go func() { committed <- eng.Commit() }()
				<-parked
				landed := make(chan struct{})
				// bounded goroutine: the batch the parked frame decides, awaited on landed
				go func() {
					defer close(landed)
					applyAll(eng, "s", streams["s"], 1)
				}()
				applyAll(eng, "t", streams["t"], 1)
				if got := eng.Position("t").Records; got != 1 {
					t.Fatalf("a batch the frame does not concern is at %d while the frame is written, want 1", got)
				}
				select {
				case <-landed:
					t.Fatal("the batch the frame in flight decides landed before the frame settled")
				case <-time.After(50 * time.Millisecond):
				}
				close(release)
				err = <-committed
				<-landed
				if fail != (err != nil) {
					t.Fatalf("commit = %v with the fsync failing %v", err, fail)
				}

				live := stateOf(t, eng)
				switch got, k := live.Pairs[pairKey{Src: tc.waiting.Source, Dst: tc.waiting.Destination}].TS, tc.name+"/"+fmt.Sprint(fail); k {
				case "late/false":
					if len(got) != 1 || live.LateDropped != before.LateDropped+1 {
						t.Fatalf("pair %v, %d dropped after the frame installed, want the late event dropped", got, live.LateDropped)
					}
				case "late/true":
					if len(got) != 2 || live.LateDropped != before.LateDropped {
						t.Fatalf("pair %v, %d dropped after the frame failed, want the event kept", got, live.LateDropped)
					}
				case "evicted/false":
					if len(got) != 1 || live.Evicted != 1 {
						t.Fatalf("pair %v, %d evicted after the frame installed, want a fresh pair", got, live.Evicted)
					}
				case "evicted/true":
					if len(got) != 3 || live.Evicted != 0 {
						t.Fatalf("pair %v, %d evicted after the frame failed, want the pair kept", got, live.Evicted)
					}
				}

				// A crash now: the restart replays every source from the
				// position its checkpoint holds.
				restarted := reopenCopy(t, cfg)
				for name, events := range streams {
					applyAll(restarted, name, events, 1)
				}
				requireSameState(t, "restart with the sources replayed", stateOf(t, restarted), live)
			})
		}
	}
}

// TestConcurrentApplyAndCommitReplay runs two sources' Apply against a
// loop of commits and ticks, over pairs that gain URL paths, pairs both
// sources feed, late events and retention evictions, so frames are
// encoded and written while histories grow, by append and by compaction.
// After each round the appliers stop, one more commit lands, and a restart
// from the log holds exactly the live store. Run it under -race.
func TestConcurrentApplyAndCommitReplay(t *testing.T) {
	cfg := Config{StateDir: t.TempDir(), Lateness: 100, RetainWindows: 3, Pipeline: testPipelineCfg(t, nil)}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := func(name string, shift int64) []Event {
		events := retentionEvents(200, 6, 100, 3000)
		for i := range events {
			events[i].TS += shift
			if i%5 == 0 {
				events[i].Path = fmt.Sprintf("/%s/%d", name, i%7)
			}
			if i%3 == 0 {
				// Pairs both sources feed.
				events[i].Source = "shared-" + events[i].Source
			}
		}
		return events
	}
	// b trails a by more than the lateness, so some of its events arrive
	// behind the watermark a's commits advance.
	sources := map[string][]Event{"a": stream("a", 0), "b": stream("b", -250)}
	const rounds = 3
	for round := 1; round <= rounds; round++ {
		var appliers sync.WaitGroup
		done := make(chan struct{})
		for name, events := range sources {
			appliers.Add(1)
			upTo := len(events) * round / rounds
			// bounded goroutine: one source's applier, awaited on appliers
			go func() {
				defer appliers.Done()
				for end := int(eng.Position(name).Records); end < upTo; {
					end = min(end+70, upTo)
					applyAll(eng, name, events[:end], 7)
					runtime.Gosched()
				}
			}()
		}
		var loop sync.WaitGroup
		loop.Add(1)
		errs := make(chan error, 1)
		// bounded goroutine: the commit and tick loop, stopped by done and awaited on loop
		go func() {
			defer loop.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				var err error
				if n%4 == 3 {
					_, err = eng.Tick(context.Background())
				} else {
					err = eng.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
		appliers.Wait()
		close(done)
		loop.Wait()
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
		if _, err := eng.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := eng.Commit(); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("restart after round %d", round), stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
	}
	st := eng.Stats()
	if st.Compactions < 2 || st.Commits <= st.Compactions || st.Evicted == 0 || st.LateDropped == 0 {
		t.Fatalf("stats = %+v, want appends, compactions after the first, evictions and late drops", st)
	}
}

// TestCommitWaitsForFrameInFlight: one frame is in flight at a time. A
// Commit that starts while another's frame is parked before its fsync
// waits for that frame to install, then writes the events applied since
// its seal, so the log replays to the live store.
func TestCommitWaitsForFrameInFlight(t *testing.T) {
	cfg := Config{StateDir: t.TempDir()}
	eng, err := OpenEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := retentionEvents(4, 6, 100, 300)
	applyAll(eng, "s", events[:100], 10)
	if err := eng.Commit(); err != nil {
		t.Fatal(err)
	}
	applyAll(eng, "s", events[:200], 10)

	appendsync := string(faultinject.PointSourceCheckpointAppendsync.Keyed("checkpoint"))
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer faultinject.Install(func(point string) error {
		if point == appendsync {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
		return nil
	})()
	committed := make(chan error, 1)
	// bounded goroutine: the commit parked before its fsync, released by the test and awaited on committed
	go func() { committed <- eng.Commit() }()
	<-parked
	applyAll(eng, "s", events[:250], 10)
	if got := eng.Uncommitted(); got != 150 {
		t.Fatalf("uncommitted = %d with a 100-event frame in flight and 50 more applied, want 150", got)
	}
	second := make(chan error, 1)
	// bounded goroutine: the second commit, awaited on second
	go func() { second <- eng.Commit() }()
	select {
	case err := <-second:
		t.Fatalf("the second commit returned (%v) while a frame was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Commits != 3 || st.Uncommitted != 0 {
		t.Fatalf("stats = %+v, want the second commit to write the 50 events left", st)
	}
	requireSameState(t, "restart after the second commit", stateOf(t, reopenCopy(t, cfg)), stateOf(t, eng))
}
