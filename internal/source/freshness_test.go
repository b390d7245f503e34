package source

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// runDaemon starts d.Run and returns a stop function that cancels it and
// fails the test if the run ended in error.
func runDaemon(t *testing.T, d *Daemon) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: daemon run under test, cancelled by stop and awaited on done
	go func() { done <- d.Run(ctx) }()
	return sync.OnceFunc(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("daemon run: %v", err)
		}
	})
}

// waitUntil polls cond every millisecond, failing the test with what
// once limit has passed.
func waitUntil(t *testing.T, limit time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(limit); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("not within %v: %s", limit, what)
		}
	}
}

// scriptConn is a connector driven one step at a time: each n > 0 sent on
// steps delivers a batch of n new events, each 0 reports catching up
// (Sink.Alive), and stepped is signalled once the step has returned.
type scriptConn struct {
	steps   chan int
	stepped chan struct{}
}

func newScriptConn() *scriptConn {
	return &scriptConn{steps: make(chan int), stepped: make(chan struct{})}
}

func (c *scriptConn) Name() string { return "script" }

func (c *scriptConn) Run(ctx context.Context, resume Position, sink Sink) error {
	pos := resume
	for {
		var n int
		select {
		case n = <-c.steps:
		case <-ctx.Done():
			return ctxCause(ctx)
		}
		if n == 0 {
			sink.Alive()
		} else {
			events := make([]Event, n)
			for j := range events {
				k := pos.Records + int64(j)
				events[j] = Event{Source: fmt.Sprintf("h%d", k%7), Destination: "script.example", TS: 1000 + 30*k}
			}
			pos.Records += int64(n)
			sink.Deliver(Batch{Source: "script", Events: events, Pos: pos})
		}
		select {
		case c.stepped <- struct{}{}:
		case <-ctx.Done():
			return ctxCause(ctx)
		}
	}
}

// step runs one step of c and waits for it to return.
func (c *scriptConn) step(t *testing.T, n int) {
	t.Helper()
	c.steps <- n
	select {
	case <-c.stepped:
	case <-time.After(30 * time.Second):
		t.Fatalf("step %d never returned", n)
	}
}

// TestTickOnCaughtUpSource: with TickInterval an hour, lines appended to
// a followed file after the first tick reach the tick snapshot within two
// seconds, because the follower's report at end of file starts a tick.
func TestTickOnCaughtUpSource(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 20))
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{&FileFollower{Path: logPath, SourceName: "proxy", PollInterval: 20 * time.Millisecond}},
		TickInterval: time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()
	seen := func(events int) func() bool {
		return func() bool {
			snap := d.Snapshot()
			return snap != nil && snap.Result.Stats.InputEvents == events
		}
	}
	waitUntil(t, 10*time.Second, "the first tick covers the file's 20 lines", seen(20))

	appendFile(t, logPath, lineSeq(1020, 20))
	waitUntil(t, 2*time.Second, "a tick covers the 20 appended lines", seen(40))
}

// TestNoTickWhileBacklogged: a source that keeps delivering without
// reporting it has caught up, as one draining a backlog does, starts no
// tick; its first report starts exactly one, and reports with nothing
// delivered since start none.
func TestNoTickWhileBacklogged(t *testing.T) {
	conn := newScriptConn()
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()
	eng := d.Engine()

	for i := 0; i < 20; i++ {
		conn.step(t, 10)
	}
	// Nothing can start a tick here; the wait gives a wrong one time to.
	time.Sleep(100 * time.Millisecond)
	if n := eng.Stats().Ticks; n != 0 {
		t.Fatalf("%d tick(s) while the source was backlogged, want 0", n)
	}

	conn.step(t, 0)
	waitUntil(t, 5*time.Second, "the caught-up report starts a tick", func() bool { return eng.Stats().Ticks > 0 })
	for i := 0; i < 5; i++ {
		conn.step(t, 0)
	}
	time.Sleep(100 * time.Millisecond)
	if n := eng.Stats().Ticks; n != 1 {
		t.Fatalf("%d ticks after one caught-up report with deliveries before it, want 1", n)
	}
}

// TestOnDemandTicksWriteNoFrame: an on-demand tick publishes and leaves
// its events and detections to the count and clock tick commits. With
// both out of reach, N on-demand ticks write no frame, and the commit at
// shutdown is the run's only one.
func TestOnDemandTicksWriteNoFrame(t *testing.T) {
	const n = 5
	conn := newScriptConn()
	dir := t.TempDir()
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: dir, Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		CommitEvery:  1 << 20,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()
	eng := d.Engine()
	for i := int64(1); i <= n; i++ {
		conn.step(t, 10)
		conn.step(t, 0)
		waitUntil(t, 10*time.Second, fmt.Sprintf("on-demand tick %d", i), func() bool { return eng.Stats().Ticks == i })
	}
	stop()
	if st := eng.Stats(); st.Ticks != n || st.Commits != 1 || st.Uncommitted != 0 || st.Events != 10*n {
		t.Fatalf("stats = %+v, want %d ticks, %d events and one commit, the one at shutdown", st, n, 10*n)
	}
}

// TestClockTickIsTheCommitClock: with count commits out of reach and no
// source reporting it has caught up, only the clock ticks commit. A
// source delivering all along gets at most one frame per clock tick, plus
// the one at shutdown.
func TestClockTickIsTheCommitClock(t *testing.T) {
	const ticks = 15
	conn := newScriptConn()
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{conn},
		TickInterval: 20 * time.Millisecond,
		CommitEvery:  1 << 20,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()
	eng := d.Engine()
	for eng.Stats().Ticks < ticks {
		conn.step(t, 10)
		time.Sleep(time.Millisecond)
	}
	stop()
	if st := eng.Stats(); st.Commits > st.Ticks+1 {
		t.Fatalf("stats = %+v: %d commits over %d clock ticks, want at most one per tick and the one at shutdown",
			st, st.Commits, st.Ticks)
	}
}

// countAlive wraps a connector, counting its Sink.Alive calls.
type countAlive struct {
	Connector
	n atomic.Int64
}

func (c *countAlive) Run(ctx context.Context, resume Position, sink Sink) error {
	return c.Connector.Run(ctx, resume, aliveCounter{sink, &c.n})
}

type aliveCounter struct {
	Sink
	n *atomic.Int64
}

func (a aliveCounter) Alive() {
	a.n.Add(1)
	a.Sink.Alive()
}

// TestIdleSourceMintsNoGeneration: once a followed file is read and
// ticked, the follower's many idle reports leave the /status ETag as it
// is; only data starts a tick, and only a tick makes a generation.
func TestIdleSourceMintsNoGeneration(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 20))
	conn := &countAlive{Connector: &FileFollower{Path: logPath, SourceName: "proxy", PollInterval: time.Millisecond}}
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()
	var etag string
	waitUntil(t, 10*time.Second, "the file's tick is published", func() bool {
		rec := queryGet(t, d.QueryHandler(), "/status", "")
		var st statusPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("/status: %v", err)
		}
		etag = rec.Header().Get("ETag")
		return st.LastTick == 1
	})
	from := conn.n.Load()
	waitUntil(t, 10*time.Second, "200 idle reports", func() bool { return conn.n.Load() >= from+200 })
	if got := queryGet(t, d.QueryHandler(), "/status", "").Header().Get("ETag"); got != etag {
		t.Fatalf("/status ETag moved from %s to %s over %d idle reports", etag, got, conn.n.Load()-from)
	}
	if n := d.Engine().Stats().Ticks; n != 1 {
		t.Fatalf("%d ticks, want the one that read the file", n)
	}
}

// TestOnDemandTickPacedByItsCost: a tick slowed by D holds the next
// on-demand tick back until the loop has rested as long, so a report that
// came in during the slow tick starts the next one no sooner than D after
// it returned.
func TestOnDemandTickPacedByItsCost(t *testing.T) {
	const slow = 300 * time.Millisecond
	tickPoint := faultinject.PointSourceDetectTick.Keyed("tick")
	sched := faultinject.New(1)
	sched.DelayAt(tickPoint, 1, slow)
	var (
		mu           sync.Mutex
		starts, ends []time.Time // each tick's arrival at the point, and its leaving it
	)
	defer faultinject.Install(func(point string) error {
		if point != string(tickPoint) {
			return nil
		}
		mu.Lock()
		starts = append(starts, time.Now())
		mu.Unlock()
		err := sched.Hook()(point)
		mu.Lock()
		ends = append(ends, time.Now())
		mu.Unlock()
		return err
	})()
	ticks := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(starts)
	}

	conn := newScriptConn()
	d, err := NewDaemon(DaemonConfig{
		Engine:       Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors:   []Connector{conn},
		TickInterval: time.Hour,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runDaemon(t, d)
	defer stop()

	conn.step(t, 10)
	conn.step(t, 0)
	waitUntil(t, 5*time.Second, "the report starts the slowed tick", func() bool { return ticks() == 1 })
	conn.step(t, 10)
	conn.step(t, 0)
	waitUntil(t, 10*time.Second, "the second report starts a tick", func() bool { return ticks() == 2 })
	stop()

	mu.Lock()
	defer mu.Unlock()
	// The slowed tick returned after it left the point; the pacing counts
	// from its return, so this gap is a lower bound on the one it keeps.
	if gap := starts[1].Sub(ends[0]); gap < slow {
		t.Fatalf("the next on-demand tick started %v after the %v-slow one, want no sooner than %v", gap, slow, slow)
	}
}
