package source

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"baywatch/internal/casefile"
	"baywatch/internal/pipeline"
)

// SourceStatus summarizes one supervised connector for /status.
type SourceStatus struct {
	Name string `json:"name"`
	// Healthy is false while the source's circuit breaker is open; its
	// pairs read as stale in tick results until it recovers.
	Healthy bool `json:"healthy"`
	// Failures is the current consecutive-failure count; Restarts the
	// lifetime restart total.
	Failures int   `json:"failures"`
	Restarts int64 `json:"restarts"`
}

// RankedEntry is one row of /ranked: a reported pair from the latest
// tick, most suspicious first.
type RankedEntry struct {
	Rank        int     `json:"rank"`
	Source      string  `json:"src"`
	Destination string  `json:"dst"`
	Score       float64 `json:"score"`
	LMScore     float64 `json:"lm_score"`
	// PeriodSeconds is the smallest dominant period, 0 when detection
	// kept no interval.
	PeriodSeconds float64 `json:"period_seconds"`
	// Stale marks pairs whose only sources are currently unhealthy: the
	// verdict is from the last data received, not live traffic.
	Stale bool `json:"stale"`
	// Case is the pair's analyst verdict ("benign"/"malicious") when a
	// casefile labels store is configured.
	Case string `json:"case,omitempty"`
}

type statusPayload struct {
	Stats    Stats          `json:"stats"`
	Sources  []SourceStatus `json:"sources"`
	Degraded bool           `json:"degraded"`
	// Generation is the query-snapshot generation this payload belongs to
	// (the value inside the endpoint's ETag).
	Generation int64 `json:"generation"`
	// LastTick is the sequence number of the published snapshot (0 before
	// the first tick); DirtyPairs how many pairs it re-analyzed and
	// DetectedPairs how many of those it had to run detection for.
	LastTick      int64 `json:"last_tick"`
	DirtyPairs    int   `json:"dirty_pairs"`
	DetectedPairs int   `json:"detected_pairs"`
	// Funnel is the published tick's filtering funnel (absent before the
	// first tick).
	Funnel *Funnel `json:"funnel,omitempty"`
}

// Funnel is the paper's filtering funnel over the whole standing pair
// store, as of one tick: pipeline.Stats' counters, without the timings.
type Funnel struct {
	InputEvents          int `json:"input_events"`
	Pairs                int `json:"pairs"`
	AfterGlobalWhitelist int `json:"after_global_whitelist"`
	AfterLocalWhitelist  int `json:"after_local_whitelist"`
	Periodic             int `json:"periodic"`
	AfterTokenFilter     int `json:"after_token_filter"`
	AfterNovelty         int `json:"after_novelty"`
	Reported             int `json:"reported"`
	Errored              int `json:"errored"`
}

func funnelOf(s pipeline.Stats) *Funnel {
	return &Funnel{
		InputEvents: s.InputEvents, Pairs: s.Pairs,
		AfterGlobalWhitelist: s.AfterGlobalWhitelist, AfterLocalWhitelist: s.AfterLocalWhitelist,
		Periodic: s.Periodic, AfterTokenFilter: s.AfterTokenFilter, AfterNovelty: s.AfterNovelty,
		Reported: s.Reported, Errored: s.Errored,
	}
}

// querySnapshot is one generation's immutable query state: everything
// the endpoints serve, computed once per tick generation and swapped in
// atomically. Handlers only ever read from it — a scrape storm costs
// zero recomputation and never touches the engine mutex.
type querySnapshot struct {
	gen    int64
	etag   string // strong ETag: `"<generation>"`
	ranked []RankedEntry
	// timelines shares every host's slice that did not change with the
	// previous generation's map; none is written once published.
	timelines map[string][]TimelineEntry
	// labelsAt is the casefile reload count the timelines were labelled
	// under.
	labelsAt int64
	status   statusPayload
}

// caseLabelCache re-reads the casefile labels only when the file
// changes; consulted once per published generation.
type caseLabelCache struct {
	mu      sync.Mutex
	mtime   time.Time
	size    int64
	loaded  bool
	labels  map[string]int
	reloads int64 // successful reads so far
	lastErr string
}

// caseLabels returns the current casefile verdicts (nil when unconfigured
// or unreadable) and how many times they have been read, which changes
// exactly when the verdicts may have. A read failure keeps the previous
// labels and logs once per distinct error.
func (d *Daemon) caseLabels() (map[string]int, int64) {
	path := d.cfg.CasefilePath
	if path == "" {
		return nil, 0
	}
	c := &d.cases
	c.mu.Lock()
	defer c.mu.Unlock()
	fi, err := os.Stat(path)
	if err == nil && c.loaded && fi.ModTime().Equal(c.mtime) && fi.Size() == c.size {
		return c.labels, c.reloads
	}
	if err == nil {
		labels, lerr := casefile.ReadLabels(path)
		if lerr == nil {
			c.labels, c.mtime, c.size, c.loaded, c.lastErr = labels, fi.ModTime(), fi.Size(), true, ""
			c.reloads++
			return c.labels, c.reloads
		}
		err = lerr
	}
	if msg := err.Error(); msg != c.lastErr {
		c.lastErr = msg
		d.logf("casefile labels unavailable: %v", err)
	}
	return c.labels, c.reloads
}

func caseVerdict(labels map[string]int, src, dst string) string {
	if labels == nil {
		return ""
	}
	// Casefile IDs use the interchange format's own "source|destination"
	// key (see casefile.Case.ID).
	switch v, ok := labels[src+"|"+dst]; {
	case !ok:
		return ""
	case v == 1:
		return "malicious"
	default:
		return "benign"
	}
}

// publishQuerySnapshot computes the next query generation from the
// latest tick result and current engine accounting, and swaps it in.
// Called once at daemon construction and then once per tick from the
// daemon loop — on demand when a caught-up source dirtied pairs, and at
// least once per TickInterval — never concurrently: each generation's
// timelines are the previous one's with only the changed hosts rebuilt.
func (d *Daemon) publishQuerySnapshot() {
	gen := d.gen.Add(1)
	labels, reloads := d.caseLabels()
	qs := &querySnapshot{gen: gen, etag: `"` + strconv.FormatInt(gen, 10) + `"`, labelsAt: reloads}

	snap := d.Snapshot()
	if snap != nil {
		stale := make(map[pipeline.PairRef]bool, len(snap.Stale))
		for _, s := range snap.Stale {
			stale[s] = true
		}
		qs.ranked = make([]RankedEntry, 0, len(snap.Result.Reported))
		for i, c := range snap.Result.Reported {
			e := RankedEntry{
				Rank:        i + 1,
				Source:      c.Source,
				Destination: c.Destination,
				Score:       c.Score,
				LMScore:     c.LMScore,
				Stale:       stale[pipeline.PairRef{Source: c.Source, Destination: c.Destination}],
				Case:        caseVerdict(labels, c.Source, c.Destination),
			}
			if c.Detection != nil {
				for _, k := range c.Detection.Kept {
					if p := k.BestPeriod(); p > 0 && (e.PeriodSeconds == 0 || p < e.PeriodSeconds) {
						e.PeriodSeconds = p
					}
				}
			}
			qs.ranked = append(qs.ranked, e)
		}
	}

	// A reload may change any host's labels, so it rebuilds them all.
	var prev map[string][]TimelineEntry
	if last := d.querySnap(); last != nil && last.labelsAt == reloads {
		prev = last.timelines
	}
	var rebuilt []string
	qs.timelines, rebuilt = d.eng.publishTimelines(prev)
	if labels != nil {
		for _, src := range rebuilt {
			entries := qs.timelines[src]
			for i := range entries {
				entries[i].Case = caseVerdict(labels, src, entries[i].Destination)
			}
		}
	}

	st := statusPayload{
		Stats:      d.eng.Stats(),
		Sources:    []SourceStatus{},
		Degraded:   d.Degraded(),
		Generation: gen,
	}
	for _, s := range d.sups {
		st.Sources = append(st.Sources, s.status())
	}
	if snap != nil {
		st.LastTick = snap.Tick
		st.DirtyPairs = snap.Dirty
		st.DetectedPairs = snap.Detected
		st.Funnel = funnelOf(snap.Result.Stats)
	}
	qs.status = st

	d.qsnap.Store(qs)
}

// querySnap returns the current generation's snapshot; never nil after
// NewDaemon.
func (d *Daemon) querySnap() *querySnapshot { return d.qsnap.Load() }

// notModified handles conditional requests: when the client presents the
// current generation's ETag, reply 304 with no body. Always stamps the
// ETag so clients can revalidate the next scrape.
func notModified(w http.ResponseWriter, r *http.Request, qs *querySnapshot) bool {
	w.Header().Set("ETag", qs.etag)
	if r.Header.Get("If-None-Match") == qs.etag {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// startQueryServer serves /ranked, /host and /status on cfg.QueryAddr
// until ctx ends; a no-op when no address is configured. The returned
// stop function blocks until the server is down.
func (d *Daemon) startQueryServer(ctx context.Context) (func(), error) {
	if d.cfg.QueryAddr == "" {
		return func() {}, nil
	}
	// Retry a lingering predecessor's port across daemon restarts;
	// bounded by ctx.
	ln, err := listenRetry(ctx, "tcp", d.cfg.QueryAddr)
	if err != nil {
		return nil, fmt.Errorf("source: listen query %s: %w", d.cfg.QueryAddr, err)
	}
	d.queryBound.Store(ln.Addr().String())
	srv := &http.Server{Handler: d.QueryHandler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	// Bounded by Run: the returned stop function is deferred there and
	// waits on done.
	//bw:guarded query server, shut down and awaited by Run's deferred stop
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	stop := func() {
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		<-done
	}
	return stop, nil
}

// QueryBoundAddr reports the query listener's address ("" before Run);
// it lets tests bind ":0".
func (d *Daemon) QueryBoundAddr() string {
	if v, ok := d.queryBound.Load().(string); ok {
		return v
	}
	return ""
}

// QueryHandler returns the query endpoint. Exposed so tests can drive it
// without a listener.
func (d *Daemon) QueryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ranked", d.admitted(d.serveRanked))
	mux.HandleFunc("/host", d.admitted(d.serveHost))
	mux.HandleFunc("/status", d.admitted(d.serveStatus))
	return mux
}

// admitted wraps a handler in admission control: a slot is held for the
// duration of the request, and a request that finds every slot taken is
// shed with 503 at once rather than queued.
func (d *Daemon) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if d.querySlots != nil {
			select {
			case d.querySlots <- struct{}{}:
				defer func() { <-d.querySlots }()
			default:
				http.Error(w, "query capacity exhausted", http.StatusServiceUnavailable)
				return
			}
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (d *Daemon) serveRanked(w http.ResponseWriter, r *http.Request) {
	qs := d.querySnap()
	limit := 25
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	if notModified(w, r, qs) {
		return
	}
	entries := qs.ranked
	if len(entries) > limit {
		entries = entries[:limit]
	}
	if entries == nil {
		entries = []RankedEntry{}
	}
	writeJSON(w, entries)
}

func (d *Daemon) serveHost(w http.ResponseWriter, r *http.Request) {
	src := r.URL.Query().Get("src")
	if src == "" {
		http.Error(w, "src parameter is required", http.StatusBadRequest)
		return
	}
	qs := d.querySnap()
	if notModified(w, r, qs) {
		return
	}
	writeJSON(w, qs.timelines[src])
}

func (d *Daemon) serveStatus(w http.ResponseWriter, r *http.Request) {
	qs := d.querySnap()
	if notModified(w, r, qs) {
		return
	}
	writeJSON(w, qs.status)
}
