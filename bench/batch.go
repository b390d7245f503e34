package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/ingest"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// shardsPerFile is the -shards value of the sharded jobs: one split per
// core of the two-core machine the workloads are sized for.
const shardsPerFile = 2

func reportedRows(res *pipeline.Result) []rankedRow {
	rows := make([]rankedRow, 0, len(res.Reported))
	for _, c := range res.Reported {
		rows = append(rows, rankedRow{Src: c.Source, Dst: c.Destination, Score: c.Score})
	}
	return rows
}

func (c *child) logPaths() []string {
	paths := make([]string, len(c.man.Logs))
	for i, name := range c.man.Logs {
		paths[i] = filepath.Join(c.spec.Dir, name)
	}
	return paths
}

// defaultJob is runOnce without -shards: every file read whole, then
// pipeline.Run over the record slice.
func (c *child) defaultJob(ctx context.Context, id int64) (*pipeline.Result, time.Duration, error) {
	start := time.Now()
	job := c.tr.begin("job.default", -1, id)
	defer c.tr.end(job)
	rd := c.tr.begin("proxylog.read", job, id)
	var records []*proxylog.Record
	for _, p := range c.logPaths() {
		recs, err := proxylog.ReadAll(p)
		if err != nil {
			return nil, 0, fmt.Errorf("read %s: %w", p, err)
		}
		records = append(records, recs...)
	}
	c.tr.end(rd)
	run := c.tr.begin("pipeline.Run", job, id)
	res, err := pipeline.Run(ctx, records, nil, c.cfg)
	if err != nil {
		return nil, 0, err
	}
	c.tr.stages(run, id, time.Now(), "pipeline.extract", res.Stats)
	c.tr.end(run)
	return res, time.Since(start), nil
}

// shardedJob is runOnce with -shards: byte-range splits planned, then
// pipeline.RunStream over them.
func (c *child) shardedJob(ctx context.Context, id int64) (*pipeline.Result, time.Duration, error) {
	start := time.Now()
	job := c.tr.begin("job.sharded", -1, id)
	defer c.tr.end(job)
	shards, err := ingest.PlanShards(c.logPaths(), shardsPerFile)
	if err != nil {
		return nil, 0, err
	}
	run := c.tr.begin("pipeline.RunStream", job, id)
	res, err := pipeline.RunStream(ctx, shards, nil, c.cfg, pipeline.StreamOptions{})
	if err != nil {
		return nil, 0, err
	}
	c.tr.stages(run, id, time.Now(), "ingest.scan", res.Stats)
	c.tr.end(run)
	c.shards = len(shards)
	return res, time.Since(start), nil
}

// detectBatch times core's batched detector alone over the summaries a
// job sent to detection, with a private threshold memo as each job has.
// It is single-threaded and outside every job's wall, so a traced run
// probes it once, after its first job.
func (c *child) detectBatch(res *pipeline.Result, id int64) {
	if c.tr == nil || id > 0 {
		return
	}
	var sums []*timeseries.ActivitySummary
	for _, cand := range res.Candidates {
		sums = append(sums, cand.Summary)
	}
	memo := core.NewThresholdMemo(0)
	sp := c.tr.begin("core.detect_batch", -1, id)
	core.NewDetector(c.cfg.Detector).DetectBatch(sums, memo)
	c.tr.end(sp)
	c.detectPairs += len(sums)
	c.memoLen = memo.Len()
}

// runScan alternates the two front halves over one input until the run's
// time is up: the CLI's default path, then the sharded one. Whatever
// they report must be identical.
func (c *child) runScan() error {
	ctx := context.Background()
	var defMs, shMs []float64
	for i := int64(0); i == 0 || c.timeLeft(); i++ {
		def, dw, err := c.defaultJob(ctx, i)
		if err != nil {
			return err
		}
		sh, sw, err := c.shardedJob(ctx, i)
		if err != nil {
			return err
		}
		defMs = append(defMs, float64(dw)/1e6)
		shMs = append(shMs, float64(sw)/1e6)
		c.measured += dw + sw
		c.res.Attempted += 2
		c.res.Ranked = reportedRows(def)
		if !slices.Equal(c.res.Ranked, reportedRows(sh)) || def.Stats.Pairs != sh.Stats.Pairs {
			c.wrong("job %d: default and sharded paths report differently", i)
		}
		if def.Degraded || sh.Degraded {
			c.wrong("job %d: degraded", i)
		}
		c.detectBatch(sh, i)
	}
	n := float64(c.man.Records)
	c.note("%d job pairs, ms each: default %.0f sharded %.0f", len(defMs), defMs, shMs)
	c.set("result_ms", median(defMs))
	c.set("records_per_s", 2*n*float64(len(defMs))/c.measured.Seconds())
	c.set("scan_default_records_per_s", n/(median(defMs)/1e3))
	c.set("scan_sharded_records_per_s", n/(median(shMs)/1e3))
	return nil
}

// runDetect repeats one sharded job over a trace most of whose pairs
// reach detection. Recall of the planted C&C destinations among the
// periodic candidates is the correctness gate.
func (c *child) runDetect() error {
	ctx := context.Background()
	var ms, pairs []float64
	for i := int64(0); i == 0 || c.timeLeft(); i++ {
		res, w, err := c.shardedJob(ctx, i)
		if err != nil {
			return err
		}
		ms = append(ms, float64(w)/1e6)
		pairs = append(pairs, float64(res.Stats.AfterLocalWhitelist))
		c.measured += w
		c.res.Attempted++
		c.res.Ranked = reportedRows(res)
		periodic := make(map[string]bool)
		for _, cand := range res.Candidates {
			if cand.Detection != nil && cand.Detection.Periodic {
				periodic[cand.Destination] = true
			}
		}
		found := 0
		for _, d := range c.man.Planted {
			if periodic[d] {
				found++
			}
		}
		if recall := float64(found) / float64(len(c.man.Planted)); recall < 0.9 {
			c.wrong("job %d: recall %.2f of %d planted destinations", i, recall, len(c.man.Planted))
		}
		if res.Degraded {
			c.wrong("job %d: degraded", i)
		}
		c.detectBatch(res, i)
	}
	c.note("%d jobs, ms each: %.0f", len(ms), ms)
	c.set("result_ms", median(ms))
	c.set("records_per_s", float64(c.man.Records)*float64(len(ms))/c.measured.Seconds())
	c.set("detect_pairs_per_s", median(pairs)/(median(ms)/1e3))
	return nil
}
