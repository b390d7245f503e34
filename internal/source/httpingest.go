package source

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/faultinject"
)

// HTTPIngest accepts proxy log lines over HTTP: POST /ingest with a
// newline-delimited body. The response reports the source's sequence
// number after the batch,
//
//	{"accepted":N,"skipped":M,"records":R}
//
// and GET /ingest returns {"records":R} — the committed-side resume point
// a restarting producer should resend from. Producers that resend from
// the reported sequence get exactly-once ingestion (the engine
// deduplicates on it); producers that do not get at-most-once across
// daemon restarts.
type HTTPIngest struct {
	// Addr is the listen address (e.g. "127.0.0.1:8479").
	Addr string
	// SourceName overrides the connector name (default "http!"+Addr).
	SourceName string
	// MaxBodyBytes bounds one POST body (default 8 MiB).
	MaxBodyBytes int64

	mu  sync.Mutex // serializes handler deliveries (sequence ordering)
	pos Position
	sk  Sink
	// parsers lends each request a lineParser, so bodies parse outside mu
	// and concurrently; a returned parser keeps its string cache for the
	// next request.
	parsers sync.Pool // of *lineParser

	bound atomic.Value // of string
}

// Name implements Connector.
func (h *HTTPIngest) Name() string {
	if h.SourceName != "" {
		return h.SourceName
	}
	return "http!" + h.Addr
}

// BoundAddr reports the listening address of the current run ("" before
// the listener is up); it lets tests listen on ":0".
func (h *HTTPIngest) BoundAddr() string {
	if v, ok := h.bound.Load().(string); ok {
		return v
	}
	return ""
}

// Handler returns the ingest endpoint. Exposed so tests can drive the
// connector synchronously (httptest) — the handler is only live between
// Run's start and return.
func (h *HTTPIngest) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", h.serveIngest)
	return mux
}

func (h *HTTPIngest) serveIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		h.mu.Lock()
		running, records := h.sk != nil, h.pos.Records
		h.mu.Unlock()
		if !running {
			http.Error(w, "ingest not running", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int64{"records": records})
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST log lines (or GET for the resume point)", http.StatusMethodNotAllowed)
		return
	}
	name := h.Name()
	if err := faultinject.Check(faultinject.PointSourceHTTPIngest, name); err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	maxBody := h.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 8 << 20
	}
	// Read and parse the body before taking h.mu: the network read is
	// bounded by the producer, not us, and must not serialize every
	// other request behind a slow client.
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > maxBody {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	lines, _ := h.parsers.Get().(*lineParser)
	if lines == nil {
		lines = new(lineParser)
	}
	var events []Event
	skipped := 0
	for len(body) > 0 {
		var line []byte
		line, body, _ = cutLine(body)
		var skip int
		events, skip = lines.appendLineEvents(events, line)
		skipped += skip
	}
	h.parsers.Put(lines)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sk == nil {
		http.Error(w, "ingest not running", http.StatusServiceUnavailable)
		return
	}
	if len(events) > 0 || skipped > 0 {
		h.pos.Records += int64(len(events))
		h.pos.Skipped += int64(skipped)
		if err := h.sk.Deliver(Batch{Source: name, Events: events, Skipped: skipped, Pos: h.pos}); err != nil {
			// Roll the sequence back: the engine never saw the batch.
			h.pos.Records -= int64(len(events))
			h.pos.Skipped -= int64(skipped)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
	} else {
		h.sk.Alive()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int64{
		"accepted": int64(len(events)),
		"skipped":  int64(skipped),
		"records":  h.pos.Records,
	})
}

// Run implements Connector: it serves the ingest endpoint until ctx ends.
// Unlike the tailing connectors a failed request here is the producer's
// problem (it gets the HTTP error and retries), so Run only returns on
// listener failure or cancellation.
func (h *HTTPIngest) Run(ctx context.Context, resume Position, sink Sink) error {
	h.mu.Lock()
	h.pos = resume
	h.sk = sink
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		h.sk = nil
		h.mu.Unlock()
	}()

	// Retry a lingering predecessor's port (daemon restarts land here
	// before TIME_WAIT clears); bounded by ctx.
	ln, err := listenRetry(ctx, "tcp", h.Addr)
	if err != nil {
		return fmt.Errorf("source: listen http %s: %w", h.Addr, err)
	}
	h.bound.Store(ln.Addr().String())
	srv := &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// Shut the server down when asked to stop; bounded by this Run call.
	//bw:guarded server closer, exits when Run's ctx ends
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
	}()
	err = srv.Serve(ln)
	if ctx.Err() != nil {
		return ctxCause(ctx)
	}
	return fmt.Errorf("source: http serve %s: %w", h.Addr, err)
}
