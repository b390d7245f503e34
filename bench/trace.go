package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"baywatch/internal/pipeline"
)

// span is one timed call into a layer's public function. Parent is the
// index of the span that caused it (-1 for none); spans of one unit of
// work (a job, a delivered batch, a tick cycle) share ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int64  `json:"id"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so one code path serves the traced and the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// stage books a phase the program timed itself (the public
// pipeline.Stats durations) as a child span starting at start.
func (t *tracer) stage(name string, parent int, id int64, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent, ID: id})
	t.mu.Unlock()
}

// stages books the phases a pipeline result timed itself as children of
// parent, laid back to back so that the last ends at end.
func (t *tracer) stages(parent int, id int64, end time.Time, extract string, st pipeline.Stats) {
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"pipeline.rank", st.RankTime}, {"pipeline.detect", st.DetectTime}, {"pipeline.popularity", st.PopularityTime}, {extract, st.ExtractTime}} {
		if s.name == "" {
			continue
		}
		end = end.Add(-s.d)
		t.stage(s.name, parent, id, end, s.d)
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (overlapping children are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < covered {
				from = covered
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// layerTotals sums spans by name: how many, their durations, and their
// self time.
type layerTotals struct {
	count  int
	selfNs int64
	durMs  []float64
}

func aggregate(spans []span) map[string]*layerTotals {
	self := selfTimes(spans)
	out := make(map[string]*layerTotals)
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		l.count++
		l.selfNs += self[i]
		l.durMs = append(l.durMs, float64(s.End-s.Start)/1e6)
	}
	return out
}
