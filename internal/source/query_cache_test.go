package source

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"baywatch/internal/casefile"
)

// queryGet drives the daemon's query handler directly (no listener) and
// returns the recorded response.
func queryGet(t *testing.T, h http.Handler, path, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestQueryGenerationCache pins the generation-keyed serving contract:
// every published generation carries a strong ETag, a matching
// If-None-Match revalidates for free with 304, the ETag advances with
// each tick generation, and casefile labels decorate both /ranked rows
// and /host timelines.
func TestQueryGenerationCache(t *testing.T) {
	_, persistent := churnRecords(0)
	cfg := testPipelineCfg(t, nil)

	casePath := filepath.Join(t.TempDir(), "labels.json")
	if err := casefile.WriteLabels(casePath, map[string]int{
		"10.1.0.1|beacon-c2.test": 1,
		"10.1.0.2|steady1.test":   0,
	}); err != nil {
		t.Fatal(err)
	}

	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: t.TempDir(), Pipeline: cfg},
		Connectors: []Connector{
			&FileFollower{Path: "unused.log", SourceName: "feed", PollInterval: time.Millisecond},
		},
		CasefilePath: casePath,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.QueryHandler()

	// Generation 1 exists before any tick: /status serves recovered
	// accounting immediately, with its ETag.
	w := queryGet(t, h, "/status", "")
	if w.Code != http.StatusOK || w.Header().Get("ETag") != `"1"` {
		t.Fatalf("pre-tick status = %d etag %q, want 200 %q", w.Code, w.Header().Get("ETag"), `"1"`)
	}

	events := recordsToEvents(persistent)
	d.Engine().Apply(Batch{Source: "feed", Events: events, Pos: Position{Records: int64(len(events))}})
	d.runTick(context.Background())

	// Generation 2: a fresh scrape gets the full body plus the new ETag...
	w = queryGet(t, h, "/ranked", "")
	if w.Code != http.StatusOK || w.Header().Get("ETag") != `"2"` {
		t.Fatalf("ranked = %d etag %q, want 200 %q", w.Code, w.Header().Get("ETag"), `"2"`)
	}
	var ranked []RankedEntry
	if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no ranked entries; the cache assertions below would be vacuous")
	}
	foundCase := false
	for _, e := range ranked {
		if e.Destination == "beacon-c2.test" {
			foundCase = true
			if e.Case != "malicious" {
				t.Fatalf("beacon case = %q, want malicious", e.Case)
			}
		}
	}
	if !foundCase {
		t.Fatal("beacon pair missing from /ranked")
	}

	// ...and a revalidation with the current ETag costs nothing: 304, no
	// body, ETag still stamped for the next scrape.
	w = queryGet(t, h, "/ranked", `"2"`)
	if w.Code != http.StatusNotModified || w.Body.Len() != 0 {
		t.Fatalf("revalidation = %d with %d body bytes, want 304 empty", w.Code, w.Body.Len())
	}
	if w.Header().Get("ETag") != `"2"` {
		t.Fatalf("304 etag = %q, want %q", w.Header().Get("ETag"), `"2"`)
	}
	for _, path := range []string{"/status", "/host?src=10.1.0.1"} {
		if w = queryGet(t, h, path, `"2"`); w.Code != http.StatusNotModified {
			t.Fatalf("%s revalidation = %d, want 304", path, w.Code)
		}
	}

	// A stale ETag misses: the client holding generation 1 gets the new
	// body.
	if w = queryGet(t, h, "/status", `"1"`); w.Code != http.StatusOK {
		t.Fatalf("stale-etag status = %d, want 200", w.Code)
	}
	var st statusPayload
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.LastTick != 1 || st.Stats.Pairs != 3 {
		t.Fatalf("status payload = gen %d tick %d pairs %d, want 2/1/3",
			st.Generation, st.LastTick, st.Stats.Pairs)
	}

	// /host timelines carry the analyst verdicts too — including for pairs
	// the ranking suppressed.
	w = queryGet(t, h, "/host?src=10.1.0.2", "")
	var tl []TimelineEntry
	if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl) != 1 || tl[0].Case != "benign" {
		t.Fatalf("steady1 timeline = %+v, want one benign entry", tl)
	}
	if w = queryGet(t, h, "/host", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("/host without src = %d, want 400", w.Code)
	}
	if w = queryGet(t, h, "/ranked?n=zero", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("/ranked with bad n = %d, want 400", w.Code)
	}

	// The next tick publishes generation 3 even with no new data, and the
	// old ETag stops matching; unhealthy sources surface as stale rows
	// computed at publish time.
	d.Engine().SetSourceHealth("feed", false)
	d.runTick(context.Background())
	w = queryGet(t, h, "/ranked", `"2"`)
	if w.Code != http.StatusOK || w.Header().Get("ETag") != `"3"` {
		t.Fatalf("post-tick ranked = %d etag %q, want 200 %q", w.Code, w.Header().Get("ETag"), `"3"`)
	}
	ranked = nil
	if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	for _, e := range ranked {
		if !e.Stale {
			t.Fatalf("entry %s->%s not stale with its only source unhealthy", e.Source, e.Destination)
		}
	}
}

// TestQueryCasefileReload pins the label cache's reload rule: the file is
// re-read only when its mtime or size changes, and a corrupted rewrite
// keeps serving the last good labels.
func TestQueryCasefileReload(t *testing.T) {
	_, persistent := churnRecords(0)
	casePath := filepath.Join(t.TempDir(), "labels.json")
	if err := casefile.WriteLabels(casePath, map[string]int{"10.1.0.1|beacon-c2.test": 0}); err != nil {
		t.Fatal(err)
	}
	var logged int
	d, err := NewDaemon(DaemonConfig{
		Engine: Config{StateDir: t.TempDir(), Pipeline: testPipelineCfg(t, nil)},
		Connectors: []Connector{
			&FileFollower{Path: "unused.log", SourceName: "feed", PollInterval: time.Millisecond},
		},
		CasefilePath: casePath,
		Logf:         func(string, ...any) { logged++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	events := recordsToEvents(persistent)
	d.Engine().Apply(Batch{Source: "feed", Events: events, Pos: Position{Records: int64(len(events))}})
	d.runTick(context.Background())

	verdict := func() string {
		t.Helper()
		w := queryGet(t, d.QueryHandler(), "/ranked", "")
		var ranked []RankedEntry
		if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
			t.Fatal(err)
		}
		for _, e := range ranked {
			if e.Destination == "beacon-c2.test" {
				return e.Case
			}
		}
		t.Fatal("beacon pair missing from /ranked")
		return ""
	}
	if got := verdict(); got != "benign" {
		t.Fatalf("initial verdict = %q, want benign", got)
	}

	// An analyst flips the label; the next generation picks it up.
	if err := casefile.WriteLabels(casePath, map[string]int{"10.1.0.1|beacon-c2.test": 1}); err != nil {
		t.Fatal(err)
	}
	d.runTick(context.Background())
	if got := verdict(); got != "malicious" {
		t.Fatalf("post-relabel verdict = %q, want malicious", got)
	}

	// A corrupted rewrite must not blank the verdicts: the previous labels
	// stay in force and the failure is logged once, not per generation.
	writeFile(t, casePath, "{not json")
	d.runTick(context.Background())
	if got := verdict(); got != "malicious" {
		t.Fatalf("verdict after corrupt casefile = %q, want last good (malicious)", got)
	}
	failures := logged
	if failures == 0 {
		t.Fatal("corrupt casefile was not logged")
	}
	d.runTick(context.Background())
	if logged != failures {
		t.Fatalf("repeated identical casefile failure re-logged (%d -> %d)", failures, logged)
	}
}

// stuckWriter is a ResponseWriter whose Write signals entered once and
// then blocks until release closes: a query that holds its slot.
type stuckWriter struct {
	header  http.Header
	once    sync.Once
	entered chan<- struct{}
	release <-chan struct{}
}

func (w *stuckWriter) Header() http.Header { return w.header }
func (w *stuckWriter) WriteHeader(int)     {}
func (w *stuckWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { w.entered <- struct{}{} })
	<-w.release
	return len(p), nil
}

// TestQueryShedsWhenSlotsFull: with every MaxQueries slot held by an
// in-flight request, a /ranked request with no client deadline is
// answered 503 at once instead of queueing; once the slots drain, the
// same request gets 200.
func TestQueryShedsWhenSlotsFull(t *testing.T) {
	const slots = 2
	d, err := NewDaemon(DaemonConfig{
		Engine:     Config{StateDir: t.TempDir()},
		Connectors: []Connector{&wedgedConn{}},
		MaxQueries: slots,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := d.QueryHandler()
	entered := make(chan struct{}, slots)
	release := make(chan struct{})
	var held sync.WaitGroup
	for i := 0; i < slots; i++ {
		held.Add(1)
		w := &stuckWriter{header: http.Header{}, entered: entered, release: release}
		// bounded goroutine: a slot-holding request, released below and awaited on held
		go func() {
			defer held.Done()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/ranked", nil))
		}()
	}
	for i := 0; i < slots; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("slot-holding requests never reached their write")
		}
	}

	code := make(chan int, 1)
	// bounded goroutine: the probe request, answered at once or after release
	go func() { code <- queryGet(t, h, "/ranked", "").Code }()
	select {
	case got := <-code:
		if got != http.StatusServiceUnavailable {
			t.Errorf("request with every slot taken: status %d, want 503", got)
		}
	case <-time.After(time.Second):
		t.Error("request with every slot taken queued instead of being shed with 503")
	}
	close(release)
	held.Wait()
	if got := queryGet(t, h, "/ranked", "").Code; got != http.StatusOK {
		t.Fatalf("request after the slots drained: status %d, want 200", got)
	}
}
