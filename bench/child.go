package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"baywatch/internal/pipeline"
)

// childSpec is what the parent hands one run process.
type childSpec struct {
	Dir     string  `json:"dir"` // a completed set-up; its manifest names the workload
	Seconds float64 `json:"seconds"`
	Traced  bool    `json:"traced"`
	Result  string  `json:"result"` // where to write the childResult
	Trace   string  `json:"trace"`  // where to write the spans
}

// childResult is what one run process reports back.
type childResult struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Incorrect bool               `json:"incorrect"`
	Notes     []string           `json:"notes,omitempty"`
	Values    map[string]float64 `json:"values"`
	Ranked    []rankedRow        `json:"ranked"`
}

// child is one run process: a single workload, measured once, traced or
// not. It starts from nothing but a set-up directory, so its peak RSS
// and GC state owe nothing to trace generation or to another workload.
type child struct {
	spec    childSpec
	w       workload
	man     *manifest
	cfg     pipeline.Config
	tr      *tracer
	res     childResult
	scratch string // fresh state directories
	started time.Time
	// measured is the wall time the run's units of work took, the
	// denominator of records_per_s.
	measured time.Duration

	queries     *queryLog
	drivers     []*driver
	opens       []openSample
	shards      int
	detectPairs int
	memoLen     int
}

// set records a named value; a ratio over nothing (no samples, no time)
// is recorded as 0, which JSON can carry.
func (c *child) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	c.res.Values[name] = v
}

func (c *child) note(format string, args ...any) {
	c.res.Notes = append(c.res.Notes, fmt.Sprintf(format, args...))
}

// fail books n failed operations (none when n is 0) with the reason: an
// event that surfaced too late, a query refused.
func (c *child) fail(n int64, format string, args ...any) {
	if n > 0 {
		c.res.Failed += n
		c.note(format, args...)
	}
}

// wrong books a failed correctness check: the program's output is not
// what the reference says it must be. The run then exits non-zero.
func (c *child) wrong(format string, args ...any) {
	c.res.Incorrect = true
	c.fail(1, format, args...)
}

// timeLeft reports whether the run has time for another unit of work,
// and if so hands the heap back first: cmd/baywatch runs one job, or one
// daemon, per process, so each unit here starts from a collected heap
// too. That also takes one unit's garbage out of the next one's GC
// pacing, which is most of what made peak RSS differ between runs.
func (c *child) timeLeft() bool {
	if time.Since(c.started).Seconds() >= c.spec.Seconds {
		return false
	}
	debug.FreeOSMemory()
	return true
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where there is no such file).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// runChild is the run process's main: load and verify the inputs, run
// the workload, write the result.
func runChild(specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	c := &child{}
	if err := json.Unmarshal(data, &c.spec); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if c.man, err = loadManifest(c.spec.Dir); err != nil {
		return err
	}
	w, ok := findWorkload(c.man.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", c.man.Workload)
	}
	c.w = w
	c.cfg = pipelineConfig(c.man)
	c.res.Values = make(map[string]float64)
	c.scratch = filepath.Join(c.spec.Dir, "scratch")
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return err
	}
	if c.spec.Traced {
		c.tr = newTracer()
	}
	c.started = time.Now()
	switch w.kind {
	case kindScan:
		err = c.runScan()
	case kindDetect:
		err = c.runDetect()
	case kindFirehose:
		err = c.runFirehose()
	case kindSteady:
		c.queries = &queryLog{us: make(map[string][]float64)}
		err = c.runSteady()
	case kindRecover:
		err = c.runRecover()
	}
	if err != nil {
		return err
	}
	c.set("peak_rss_mb", peakRSSMB())
	c.queryValues()
	if c.tr != nil {
		c.layerValues()
		if err := c.tr.write(c.spec.Trace); err != nil {
			return err
		}
	}
	out, err := json.Marshal(&c.res)
	if err != nil {
		return err
	}
	return os.WriteFile(c.spec.Result, out, 0o644)
}

// queryClasses are the scrape spans the client records, by endpoint and
// status.
var queryClasses = []string{"ranked_304", "ranked_200", "host_200", "status_200"}

func (c *child) queryValues() {
	q := c.queries
	if q == nil {
		return
	}
	for _, class := range queryClasses {
		_, t := tail(q.us[class])
		c.set("source.query."+class+"_us_p50", median(q.us[class]))
		c.set("source.query."+class+"_us_tail", t)
	}
	ranked := append(append([]float64(nil), q.us["ranked_304"]...), q.us["ranked_200"]...)
	p, t := tail(ranked)
	c.note("%d queries sent, %d of them /ranked scrapes; their tail is p%v", q.sent, len(ranked), p)
	c.set("query_us_p50", median(ranked))
	c.set("query_ms_tail", t/1e3)
	c.set("source.query_503", float64(q.shed))
}

// layers are the modules whose public functions the traced run wraps, in
// the order a log line meets them.
var layers = []string{
	"proxylog.read", "pipeline.extract", "ingest.scan",
	"pipeline.popularity", "pipeline.detect", "pipeline.rank", "core.detect_batch",
	"source.open", "source.follow", "source.apply", "source.commit", "source.tick", "source.publish",
}

// layerValues turns the spans and the drivers' samples into the
// per-layer metrics: for every layer its span count, busy (self) time
// and share of the traced wall, and for some their own figures.
func (c *child) layerValues() {
	spans := c.tr.spans
	agg := aggregate(spans)
	var first, last int64
	for i, s := range spans {
		if i == 0 || s.Start < first {
			first = s.Start
		}
		if s.End > last {
			last = s.End
		}
	}
	wall := float64(last - first)
	get := func(name string) *layerTotals {
		if l := agg[name]; l != nil {
			return l
		}
		return &layerTotals{}
	}
	for _, name := range layers {
		l := get(name)
		c.set(name+".count", float64(l.count))
		c.set(name+".busy_ms", float64(l.selfNs)/1e6)
		if wall > 0 {
			c.set(name+".share_pct", 100*float64(l.selfNs)/wall)
		}
	}

	if get("proxylog.read").count > 0 {
		c.set("proxylog.read_records", float64(c.man.Records))
	}
	if get("ingest.scan").count > 0 {
		c.set("ingest.scan_records", float64(c.man.Records))
		c.set("ingest.scan_shards", float64(c.shards))
	}
	if l := get("core.detect_batch"); l.selfNs > 0 {
		c.set("core.detect_batch_pairs_per_s", float64(c.detectPairs)/(float64(l.selfNs)/1e9))
		c.set("core.threshold_memo_len", float64(c.memoLen))
	}

	if len(c.drivers) == 0 {
		return
	}
	var openMs, openBytes []float64
	for _, o := range c.opens {
		openMs = append(openMs, o.ms)
		openBytes = append(openBytes, o.bytes)
	}
	c.set("source.open_ms", median(openMs))
	c.set("source.open_bytes", median(openBytes))

	var events, batches, skipped float64
	var commitMs, commitBytes, commitEvents, dirty []float64
	var written float64
	reported := 0
	for _, d := range c.drivers {
		events += float64(d.events)
		batches += float64(d.batches)
		skipped += float64(d.skipped)
		for _, s := range d.commits {
			commitMs = append(commitMs, s.ms)
			commitBytes = append(commitBytes, s.bytes)
			commitEvents = append(commitEvents, s.events)
			written += s.bytes
		}
		dirty = append(dirty, d.dirty...)
		reported = d.reported
	}
	c.set("source.follow_batches", batches)
	c.set("source.follow_skipped", skipped)
	if events > 0 {
		apply := get("source.apply")
		var applyNs float64
		for _, ms := range apply.durMs {
			applyNs += ms * 1e6
		}
		c.set("source.follow_us_per_event", float64(get("source.follow").selfNs)/1e3/events)
		c.set("source.apply_us_per_event", applyNs/1e3/events)
		c.set("source.apply_max_ms", maxOf(apply.durMs))
		// Log bytes ingested: events at the feed file's mean line length.
		if fi, err := os.Stat(filepath.Join(c.spec.Dir, c.man.Feed)); err == nil && c.man.Records > 0 {
			perLine := float64(fi.Size()) / float64(c.man.lines(c.man.Feed))
			c.set("source.commit_write_amp", written/(events*perLine))
		}
	}
	c.set("source.commit_ms_p50", median(commitMs))
	c.set("source.commit_ms_max", maxOf(commitMs))
	c.set("source.commit_bytes", median(commitBytes))
	// The slope of commit time over store size means something only where
	// the store grew severalfold under the commits (a drain, not a steady
	// trickle onto a large state).
	if lo, hi := quantile(sorted(commitEvents), 0), maxOf(commitEvents); hi >= 2*lo {
		c.set("source.commit_ms_per_mevent", slope(commitEvents, commitMs)*1e6)
	}

	tick := get("source.tick")
	_, tickTail := tail(tick.durMs)
	var firstTick []float64
	for _, s := range spans {
		if s.Name == "source.tick" && s.ID == 1 {
			firstTick = append(firstTick, float64(s.End-s.Start)/1e6)
		}
	}
	c.set("source.tick_ms_p50", median(tick.durMs))
	c.set("source.tick_ms_tail", tickTail)
	c.set("source.tick_first_ms", median(firstTick))
	c.set("source.tick_dirty", median(dirty))
	c.set("source.tick_reported", float64(reported))
	c.set("source.publish_ms_p50", median(get("source.publish").durMs))
}
