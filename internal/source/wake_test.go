package source

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// TestFollowIdleBackoffSchedule pins the follower's idle wait: after a read
// that returned bytes the empty checks wait poll/16, /8, /4, /2 and then
// poll, and stay there; a read with bytes starts the schedule over, and so
// does one that ends mid-line.
func TestFollowIdleBackoffSchedule(t *testing.T) {
	const poll = 1600 * time.Millisecond
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	line := logLine(1001, "10.0.0.1", "evil.example", "/cb")
	writeFile(t, logPath, logLine(1000, "10.0.0.1", "evil.example", "/cb"))

	errDone := errors.New("schedule recorded")
	var waits []time.Duration
	followSleep = func(ctx context.Context, w *fileWatch, d time.Duration) error {
		waits = append(waits, d)
		switch len(waits) {
		case 6: // idle at the cap: half a line arrives
			appendFile(t, logPath, line[:10])
		case 8: // the line completes
			appendFile(t, logPath, line[10:])
		case 10:
			return errDone
		}
		return nil
	}
	t.Cleanup(func() { followSleep = waitChange })

	c := &collectSink{}
	f := &FileFollower{Path: logPath, SourceName: "proxy", PollInterval: poll}
	if err := f.Run(context.Background(), Position{}, c); !errors.Is(err, errDone) {
		t.Fatalf("run ended with %v, want the scripted stop", err)
	}
	const floor = poll / 16
	want := []time.Duration{
		floor, 2 * floor, 4 * floor, 8 * floor, poll, poll, // idle after the first line
		floor, 2 * floor, // after the partial line
		floor, 2 * floor, // after the line completed
	}
	if !slices.Equal(waits, want) {
		t.Fatalf("idle waits %v, want %v", waits, want)
	}
	sameTS(t, c.tsOf(), []int64{1000, 1001})
	if c.alive != len(want) {
		t.Fatalf("%d Alive beats, want one per idle wait (%d)", c.alive, len(want))
	}
}

// TestFollowMissingPathBackoff: while a rotated file's path is missing the
// follower re-checks on the same schedule, which starts at its floor
// however long the file sat idle before the rename.
func TestFollowMissingPathBackoff(t *testing.T) {
	const poll = 1600 * time.Millisecond
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))

	errDone := errors.New("schedule recorded")
	var waits []time.Duration
	followSleep = func(ctx context.Context, w *fileWatch, d time.Duration) error {
		waits = append(waits, d)
		switch len(waits) {
		case 6: // idle at the cap: the file is renamed away
			if err := os.Rename(logPath, logPath+".1"); err != nil {
				t.Error(err)
			}
		case 9: // and its successor appears
			writeFile(t, logPath, lineSeq(2000, 1))
		case 10:
			return errDone
		}
		return nil
	}
	t.Cleanup(func() { followSleep = waitChange })

	c := &collectSink{}
	f := &FileFollower{Path: logPath, SourceName: "proxy", PollInterval: poll}
	if err := f.Run(context.Background(), Position{}, c); !errors.Is(err, errDone) {
		t.Fatalf("run ended with %v, want the scripted stop", err)
	}
	const floor = poll / 16
	want := []time.Duration{
		floor, 2 * floor, 4 * floor, 8 * floor, poll, poll, // idle
		floor, 2 * floor, 4 * floor, // the path is missing
		floor, // the new file was read
	}
	if !slices.Equal(waits, want) {
		t.Fatalf("idle waits %v, want %v", waits, want)
	}
	sameTS(t, c.tsOf(), []int64{1000, 2000})
}

// TestFollowRotationReadsOldFileToEnd: bytes the writer appends to the old
// file after the follower's last read, as the rename lands, are delivered
// before the follower moves to the new file.
func TestFollowRotationReadsOldFileToEnd(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))

	renamed := false
	followSleep = func(ctx context.Context, w *fileWatch, d time.Duration) error {
		if !renamed {
			renamed = true
			if err := os.Rename(logPath, logPath+".1"); err != nil {
				return err
			}
			writeFile(t, logPath, lineSeq(2000, 1))
		}
		return waitChange(ctx, w, d)
	}
	t.Cleanup(func() { followSleep = waitChange })
	// The rotation fault point sits after the stat that saw the rename and
	// before the old file is left: the writer's last line lands there.
	t.Cleanup(faultinject.Install(func(point string) error {
		if point == string(faultinject.PointSourceFollowRotate.Keyed("proxy")) {
			appendFile(t, logPath+".1", lineSeq(1001, 1))
		}
		return nil
	}))

	c := &collectSink{stopAt: 3}
	if err := followerUnderTest(logPath).Run(context.Background(), Position{}, c); !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), []int64{1000, 1001, 2000})
}

// wakeBound is how late after its write an appended line may be delivered
// in the wake tests that run with a one-second PollInterval: well under
// it, and well over the sixteenth of it the follower waits while the file
// grows where no change watch wakes it sooner.
const wakeBound = 400 * time.Millisecond

// timedSink records when each event (by timestamp) was delivered; safe
// for a connector goroutine and a test goroutine.
type timedSink struct {
	mu sync.Mutex
	at map[int64]time.Time
}

func (s *timedSink) Deliver(b Batch) error {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ev := range b.Events {
		s.at[ev.TS] = now
	}
	return nil
}

func (s *timedSink) Alive() {}

func (s *timedSink) deliveredAt(ts int64) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.at[ts]
	return at, ok
}

// await waits until the event with timestamp ts has been delivered.
func (s *timedSink) await(t *testing.T, ts int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, ok := s.deliveredAt(ts); ok {
			return
		}
	}
	t.Fatalf("event %d never delivered", ts)
}

// startWakeFollower tails path with the given PollInterval and returns the
// sink and a stop function that ends the run and waits for it.
func startWakeFollower(t *testing.T, path string, poll time.Duration) (*timedSink, func()) {
	s := &timedSink{at: make(map[int64]time.Time)}
	f := &FileFollower{Path: path, SourceName: "proxy", PollInterval: poll}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: test connector run, cancelled by stop and awaited on done
	go func() { done <- f.Run(ctx, Position{}, s) }()
	return s, func() {
		cancel()
		<-done
	}
}

// checkWake requires every line of written (timestamp → write time) to
// have been delivered within bound of its write, and logs the median and
// largest write-to-delivery lag.
func checkWake(t *testing.T, s *timedSink, written map[int64]time.Time, bound time.Duration) {
	t.Helper()
	var late []string
	lags := make([]time.Duration, 0, len(written))
	for ts, w := range written {
		s.await(t, ts)
		at, _ := s.deliveredAt(ts)
		lag := at.Sub(w)
		lags = append(lags, lag)
		if lag > bound {
			late = append(late, lag.Round(time.Millisecond).String())
		}
	}
	slices.Sort(lags)
	t.Logf("write-to-delivery lag over %d lines: median %v, max %v", len(lags), lags[len(lags)/2], lags[len(lags)-1])
	if len(late) > 0 {
		t.Fatalf("%d of %d appended lines delivered later than %v after their write: %s",
			len(late), len(written), bound, strings.Join(late, " "))
	}
}

// TestFollowWakeOnAppend: with a one-second PollInterval, lines appended
// every 20 ms are each delivered well within the interval: the change
// watch wakes the follower as each lands, and without one a growing file
// is re-checked at a sixteenth of the interval.
func TestFollowWakeOnAppend(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))
	s, stop := startWakeFollower(t, logPath, time.Second)
	defer stop()
	s.await(t, 1000)

	written := make(map[int64]time.Time)
	for i := int64(1); i <= 50; i++ {
		time.Sleep(20 * time.Millisecond)
		written[1000+i] = time.Now()
		appendFile(t, logPath, lineSeq(1000+i, 1))
	}
	checkWake(t, s, written, wakeBound)
}

// TestFollowWakeAfterRename: the same holds across a rotation whose new
// file appears ~100 ms after the old one was renamed away.
func TestFollowWakeAfterRename(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))
	s, stop := startWakeFollower(t, logPath, time.Second)
	defer stop()
	s.await(t, 1000)

	written := make(map[int64]time.Time)
	for i := int64(1); i <= 50; i++ {
		time.Sleep(20 * time.Millisecond)
		if i == 25 {
			if err := os.Rename(logPath, logPath+".1"); err != nil {
				t.Fatal(err)
			}
			time.Sleep(100 * time.Millisecond)
		}
		written[1000+i] = time.Now()
		appendFile(t, logPath, lineSeq(1000+i, 1))
	}
	checkWake(t, s, written, wakeBound)
}

// watchOrSkip skips a test of the change watch where none can be made on
// path.
func watchOrSkip(t *testing.T, path string) {
	t.Helper()
	w := openWatch(path)
	if w == nil {
		t.Skip("no file change watch on this platform")
	}
	w.close()
}

// TestFollowWakesWithoutPolling: with an hour-long PollInterval, whose
// backoff floor is 225 s, lines appended every 20 ms are each delivered
// within 100 ms of their write: the change watch wakes the follower, not
// its timer.
func TestFollowWakesWithoutPolling(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))
	watchOrSkip(t, logPath)
	s, stop := startWakeFollower(t, logPath, time.Hour)
	defer stop()
	s.await(t, 1000)

	written := make(map[int64]time.Time)
	for i := int64(1); i <= 50; i++ {
		time.Sleep(20 * time.Millisecond)
		written[1000+i] = time.Now()
		appendFile(t, logPath, lineSeq(1000+i, 1))
	}
	checkWake(t, s, written, 100*time.Millisecond)
}

// TestFollowWatchCancelPrompt: a run parked in a watched wait, with an
// hour before its timer would end it, returns within 100 ms of cancel.
func TestFollowWatchCancelPrompt(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))
	watchOrSkip(t, logPath)
	parked := make(chan struct{}, 1)
	followSleep = func(ctx context.Context, w *fileWatch, d time.Duration) error {
		if w != nil {
			select {
			case parked <- struct{}{}:
			default:
			}
		}
		return waitChange(ctx, w, d)
	}
	t.Cleanup(func() { followSleep = waitChange })

	f := &FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: test connector run, cancelled below and awaited on done
	go func() { done <- f.Run(ctx, Position{}, &timedSink{at: make(map[int64]time.Time)}) }()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the follower never entered a watched wait")
	}
	time.Sleep(20 * time.Millisecond) // let it block in the watch's read
	cancelled := time.Now()
	cancel()
	select {
	case err := <-done:
		done <- err // for the cleanup
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run ended with %v, want cancellation", err)
		}
		if lag := time.Since(cancelled); lag > 100*time.Millisecond {
			t.Fatalf("run returned %v after cancel, want within 100ms", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run still parked 5s after cancel")
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestFollowWatchReleasedOnReopen: each reopen closes the old handle's
// watch with the handle, so after 50 rotations the process holds no more
// descriptors than it did on the first file. Only growth fails: an earlier
// test's keep-alive connection may close meanwhile and lower the count.
func TestFollowWatchReleasedOnReopen(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd to count descriptors in")
	}
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 1))
	s, stop := startWakeFollower(t, logPath, time.Second)
	defer stop()
	s.await(t, 1000)
	base := openFDs(t)

	for i := int64(1); i <= 50; i++ {
		// The successor replaces the file in one rename, as a rotating
		// writer that prepares it aside does.
		next := logPath + ".next"
		writeFile(t, next, lineSeq(1000+i, 1))
		if err := os.Rename(next, logPath); err != nil {
			t.Fatal(err)
		}
		s.await(t, 1000+i)
	}
	if got := openFDs(t); got > base {
		t.Fatalf("%d open descriptors after 50 rotations, want at most the %d held on the first file", got, base)
	}
}
