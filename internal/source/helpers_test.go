package source

import (
	"context"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"baywatch/internal/corpus"
	"baywatch/internal/langmodel"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
	"baywatch/internal/synthetic"
	"baywatch/internal/whitelist"
)

// testPipelineCfg is the minimal detection config: a small language model
// and a global whitelist over the trace's popular catalog.
func testPipelineCfg(t testing.TB, catalog []string) pipeline.Config {
	t.Helper()
	lm, err := langmodel.Train(corpus.PopularDomains(2000, 42))
	if err != nil {
		t.Fatal(err)
	}
	return pipeline.Config{Global: whitelist.NewGlobal(catalog), LM: lm}
}

// smallTrace generates a compact synthetic enterprise with one beaconing
// infection, the shared input of the differential tests.
func smallTrace(t *testing.T) *synthetic.Trace {
	t.Helper()
	gen := synthetic.DefaultConfig()
	gen.Days = 1
	gen.Hosts = 25
	gen.CatalogSize = 200
	gen.BrowsingSessionsPerHostDay = 2
	gen.UpdateServices = 2
	gen.NicheServices = 2
	gen.Infections = []synthetic.Infection{{
		Family: "Zbot", Clients: 2, Period: 120,
		Noise: synthetic.NoiseConfig{JitterSigma: 2, MissProb: 0.02},
	}}
	tr, err := synthetic.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// recordsToEvents converts proxy records to connector events the way the
// connectors parse them (ClientIP source, no correlation).
func recordsToEvents(records []*proxylog.Record) []Event {
	events := make([]Event, len(records))
	for i, r := range records {
		events[i] = Event{Source: r.ClientIP, Destination: r.Host, TS: r.Timestamp, Path: r.Path}
	}
	return events
}

// recordLines renders records as the log lines a live source would carry.
func recordLines(records []*proxylog.Record) string {
	var sb strings.Builder
	for _, r := range records {
		sb.WriteString(r.Format())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// applyAll feeds events into the engine through one named source in fixed
// batches, resuming from the engine's current position (so it is
// restart-safe inside crash loops).
func applyAll(eng *Engine, sourceName string, events []Event, batch int) {
	pos := eng.Position(sourceName)
	for int(pos.Records) < len(events) {
		end := int(pos.Records) + batch
		if end > len(events) {
			end = len(events)
		}
		chunk := events[pos.Records:end]
		pos.Records = int64(end)
		eng.Apply(Batch{Source: sourceName, Events: chunk, Pos: pos})
	}
}

// sameResult asserts two pipeline results are identical in everything the
// report surfaces: the filtering funnel and the ranked cases with their
// exact scores.
func sameResult(t *testing.T, got, want *pipeline.Result) {
	t.Helper()
	gs, ws := got.Stats, want.Stats
	if gs.InputEvents != ws.InputEvents || gs.Pairs != ws.Pairs ||
		gs.AfterGlobalWhitelist != ws.AfterGlobalWhitelist ||
		gs.AfterLocalWhitelist != ws.AfterLocalWhitelist ||
		gs.Periodic != ws.Periodic || gs.AfterTokenFilter != ws.AfterTokenFilter ||
		gs.AfterNovelty != ws.AfterNovelty || gs.Reported != ws.Reported {
		t.Fatalf("funnel diverged:\n got %+v\nwant %+v", gs, ws)
	}
	if len(got.Reported) != len(want.Reported) {
		t.Fatalf("reported %d cases, want %d", len(got.Reported), len(want.Reported))
	}
	for i := range want.Reported {
		g, w := got.Reported[i], want.Reported[i]
		if g.Source != w.Source || g.Destination != w.Destination ||
			g.Score != w.Score || g.LMScore != w.LMScore {
			t.Fatalf("reported[%d] = %s->%s score=%v lm=%v, want %s->%s score=%v lm=%v",
				i, g.Source, g.Destination, g.Score, g.LMScore,
				w.Source, w.Destination, w.Score, w.LMScore)
		}
	}
}

// sameAnalysis is sameResult held to the pipeline's own differential
// standard: the whole funnel and failure accounting, and every candidate in
// order with a deeply equal Detection, the same indication outcome and the
// same verdict — so a detection that reached the result by a different
// route (computed this tick, standing from an earlier one, restored from
// the checkpoint log) has to be the same detection bit for bit.
func sameAnalysis(t *testing.T, what string, got, want *pipeline.Result) {
	t.Helper()
	gs, ws := got.Stats, want.Stats
	for _, s := range []*pipeline.Stats{&gs, &ws} {
		s.ExtractTime, s.PopularityTime, s.DetectTime, s.RankTime = 0, 0, 0, 0
	}
	if gs != ws || got.Degraded != want.Degraded || !reflect.DeepEqual(got.Errors, want.Errors) {
		t.Fatalf("%s: run accounting diverged:\n got %+v degraded=%v errors=%v\nwant %+v degraded=%v errors=%v",
			what, gs, got.Degraded, got.Errors, ws, want.Degraded, want.Errors)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("%s: %d candidates, want %d", what, len(got.Candidates), len(want.Candidates))
	}
	for i, w := range want.Candidates {
		g := got.Candidates[i]
		if g.Source != w.Source || g.Destination != w.Destination {
			t.Fatalf("%s: candidate %d is %s->%s, want %s->%s", what, i, g.Source, g.Destination, w.Source, w.Destination)
		}
		if g.Summary.EventCount() != w.Summary.EventCount() || g.Summary.First != w.Summary.First {
			t.Fatalf("%s: %s->%s: summary of %d events from %d, want %d from %d", what, g.Source, g.Destination,
				g.Summary.EventCount(), g.Summary.First, w.Summary.EventCount(), w.Summary.First)
		}
		if !reflect.DeepEqual(g.Detection, w.Detection) {
			t.Fatalf("%s: %s->%s: detection diverged:\n got %+v\nwant %+v", what, g.Source, g.Destination, g.Detection, w.Detection)
		}
		if g.LMScore != w.LMScore || g.Popularity != w.Popularity || g.SimilarSources != w.SimilarSources ||
			g.Token != w.Token || g.Novelty != w.Novelty || g.Score != w.Score || g.SuppressedBy != w.SuppressedBy {
			t.Fatalf("%s: %s->%s: indication diverged:\n got %+v\nwant %+v", what, g.Source, g.Destination, *g, *w)
		}
	}
	sameResult(t, got, want)
}

// sortedPairKeys lists the store's pairs in (src, dst) order; e.mu must be
// held.
func (e *Engine) sortedPairKeys() []pairKey {
	keys := make([]pairKey, 0, len(e.pairs))
	for k := range e.pairs {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, comparePairKeys)
	return keys
}

// batchOver is the from-scratch reference for an engine's store: one batch
// pipeline run over exactly the events it holds, entering through the
// ingest layer like any other batch run. The store keeps a pair's path
// sample, not a path per event, so the sample's entries ride on the pair's
// first events: the batch run samples exactly those distinct paths, and
// the token filter reads a sample as a set.
func batchOver(t *testing.T, e *Engine) *pipeline.Result {
	t.Helper()
	e.mu.Lock()
	var events []pipeline.PairEvent
	for _, k := range e.sortedPairKeys() {
		h := e.pairs[k]
		for i, ts := range h.ts {
			ev := pipeline.PairEvent{Source: k.Src, Destination: k.Dst, Timestamp: ts}
			if i < len(h.paths) {
				ev.Path = h.paths[i]
			}
			events = append(events, ev)
		}
	}
	cfg := e.cfg.Pipeline
	cfg.Scale = e.cfg.Scale
	e.mu.Unlock()
	res, err := pipeline.RunEvents(context.Background(), events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// writeFile writes (or overwrites) a file, failing the test on error.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendFile appends to a file the way a log writer does.
func appendFile(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// logLine renders one well-formed proxy log line.
func logLine(ts int64, src, dst, path string) string {
	r := proxylog.Record{
		Timestamp: ts, ClientIP: src, Method: "GET", Scheme: "http",
		Host: dst, Path: path, Status: 200, BytesOut: 100, BytesIn: 200,
		UserAgent: "test/1.0",
	}
	return r.Format() + "\n"
}

// collectSink gathers deliveries with the engine's sequence-dedup
// semantics, for connector tests that do not want a full engine. Not
// safe for concurrent use by multiple connectors.
type collectSink struct {
	events  []Event
	skipped int
	pos     Position
	alive   int
	// stopAt, when > 0, makes Deliver return errStopSink once the
	// collector holds that many events — a scripted way to end a Run.
	stopAt int
	// onDeliver, when non-nil, runs after each applied batch (for
	// scripting file mutations at exact delivery counts).
	onDeliver func(total int)
}

type sinkStop struct{}

func (sinkStop) Error() string { return "collector: scripted stop" }

func (c *collectSink) Deliver(b Batch) error {
	first := b.Pos.Records - int64(len(b.Events))
	skip := c.pos.Records - first
	if skip < 0 {
		skip = 0
	}
	if skip < int64(len(b.Events)) {
		c.events = append(c.events, b.Events[skip:]...)
	}
	if b.Pos.Records >= c.pos.Records {
		c.pos = b.Pos
		c.skipped = int(b.Pos.Skipped)
	}
	if c.onDeliver != nil {
		c.onDeliver(len(c.events))
	}
	if c.stopAt > 0 && len(c.events) >= c.stopAt {
		return sinkStop{}
	}
	return nil
}

func (c *collectSink) Alive() { c.alive++ }

// tsOf projects the collected events to their timestamps.
func (c *collectSink) tsOf() []int64 {
	out := make([]int64, len(c.events))
	for i, ev := range c.events {
		out[i] = ev.TS
	}
	return out
}

// HostTimeline returns the per-destination history of one source host,
// sorted by destination: the one-host cut of Engine.Timelines.
func (e *Engine) HostTimeline(src string) []TimelineEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []TimelineEntry
	unhealthy := e.unhealthyLocked()
	for k, h := range e.pairs {
		if k.Src != src || len(h.ts) == 0 {
			continue
		}
		out = append(out, e.timelineEntryLocked(h, unhealthy))
	}
	slices.SortFunc(out, byDestination)
	return out
}
