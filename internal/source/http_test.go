package source

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// faultySink wraps a collectSink with a switchable delivery failure, the
// shape a full engine presents when a batch cannot be applied.
type faultySink struct {
	c    collectSink
	fail atomic.Bool
}

func (f *faultySink) Deliver(b Batch) error {
	if f.fail.Load() {
		return errors.New("sink refused the batch")
	}
	return f.c.Deliver(b)
}

func (f *faultySink) Alive() { f.c.Alive() }

// startHTTPIngest runs the connector on a loopback port and returns its
// base URL plus a stopper that waits for Run to return.
func startHTTPIngest(t *testing.T, h *HTTPIngest, resume Position, sink Sink) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	// bounded goroutine: test connector run, cancelled by the returned stopper and awaited on done
	go func() { done <- h.Run(ctx, resume, sink) }()
	var addr string
	for i := 0; i < 500; i++ {
		if addr = h.BoundAddr(); addr != "" {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		t.Fatal("http ingest never bound")
	}
	return "http://" + addr, func() error {
		cancel(errors.New("test stop"))
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("http ingest did not stop")
			return nil
		}
	}
}

func postLines(t *testing.T, url, body string) (int, map[string]int64) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func getRecords(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out["records"]
}

// TestHTTPIngestResumeAndRollback drives the exactly-once contract: the
// response and GET /ingest report the resume point, a refused batch rolls
// the sequence back so nothing is lost, and a resent batch lands once.
func TestHTTPIngestResumeAndRollback(t *testing.T) {
	h := &HTTPIngest{Addr: "127.0.0.1:0", SourceName: "http"}
	sink := &faultySink{}
	url, stop := startHTTPIngest(t, h, Position{}, sink)

	code, out := postLines(t, url, lineSeq(1000, 3))
	if code != http.StatusOK || out["accepted"] != 3 || out["records"] != 3 {
		t.Fatalf("post 1 = %d %v, want 200 accepted=3 records=3", code, out)
	}
	if got := getRecords(t, url); got != 3 {
		t.Fatalf("resume point = %d, want 3", got)
	}

	// The engine refuses the next batch: 503, and the sequence rolls back
	// so the producer's retry of the same batch is not treated as new.
	sink.fail.Store(true)
	if code, _ := postLines(t, url, lineSeq(2000, 2)); code != http.StatusServiceUnavailable {
		t.Fatalf("post against refusing sink = %d, want 503", code)
	}
	if got := getRecords(t, url); got != 3 {
		t.Fatalf("resume point after refused batch = %d, want 3 (rolled back)", got)
	}
	sink.fail.Store(false)
	code, out = postLines(t, url, lineSeq(2000, 2))
	if code != http.StatusOK || out["records"] != 5 {
		t.Fatalf("retried post = %d %v, want 200 records=5", code, out)
	}

	// Malformed lines count skipped, not accepted.
	code, out = postLines(t, url, "definitely not a log line\n")
	if code != http.StatusOK || out["accepted"] != 0 || out["skipped"] != 1 {
		t.Fatalf("malformed post = %d %v, want 200 accepted=0 skipped=1", code, out)
	}

	if err := stop(); err != nil && !strings.Contains(err.Error(), "test stop") {
		t.Fatalf("run ended with %v, want the cancellation cause", err)
	}
	sameTS(t, sink.c.tsOf(), append(tsRange(1000, 3), tsRange(2000, 2)...))
}

// TestHTTPIngestConcurrentProducers: producers posting at once each parse
// with their own pooled parser, outside the connector's mutex; every line
// lands once, with its own client, host and path.
func TestHTTPIngestConcurrentProducers(t *testing.T) {
	const producers, posts, perPost = 4, 6, 50
	h := &HTTPIngest{Addr: "127.0.0.1:0", SourceName: "http"}
	sink := &faultySink{}
	url, stop := startHTTPIngest(t, h, Position{}, sink)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		// bounded goroutine: one producer's posts, awaited on wg
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				var sb strings.Builder
				for j := 0; j < perPost; j++ {
					ts := int64(100000*p + perPost*i + j)
					sb.WriteString(logLine(ts, fmt.Sprintf("10.0.%d.1", p), fmt.Sprintf("p%d.example", p), fmt.Sprintf("/p%d/%d", p, j)))
				}
				resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(sb.String()))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("producer %d post %d = %d, want 200", p, i, resp.StatusCode)
				}
			}
		}()
	}
	wg.Wait()
	if err := stop(); err != nil && !strings.Contains(err.Error(), "test stop") {
		t.Fatalf("run ended with %v, want the cancellation cause", err)
	}
	if got, want := len(sink.c.events), producers*posts*perPost; got != want {
		t.Fatalf("delivered %d events, want %d", got, want)
	}
	seen := make(map[int64]bool)
	for _, ev := range sink.c.events {
		p, j := ev.TS/100000, ev.TS%100000%perPost
		want := Event{Source: fmt.Sprintf("10.0.%d.1", p), Destination: fmt.Sprintf("p%d.example", p), TS: ev.TS, Path: fmt.Sprintf("/p%d/%d", p, j)}
		if ev != want || seen[ev.TS] {
			t.Fatalf("event %+v: want %+v, delivered once", ev, want)
		}
		seen[ev.TS] = true
	}
}

// TestHTTPIngestBodyLimitAndFaultPoint: an oversized body is shed with
// 413 before parsing, and an injected failure at
// faultinject.PointSourceHTTPIngest surfaces as 503 to the producer
// without wedging the connector.
func TestHTTPIngestBodyLimitAndFaultPoint(t *testing.T) {
	errInjected := fmt.Errorf("injected")
	sched := faultinject.New(5)
	sched.FailAt(faultinject.PointSourceHTTPIngest.Keyed("http"), 1, errInjected)
	t.Cleanup(faultinject.Install(sched.Hook()))

	h := &HTTPIngest{Addr: "127.0.0.1:0", SourceName: "http", MaxBodyBytes: 128}
	sink := &faultySink{}
	url, stop := startHTTPIngest(t, h, Position{Records: 7}, sink)

	// Hit 1: the injected ingest fault is the producer's problem (503).
	if code, _ := postLines(t, url, lineSeq(1000, 1)); code != http.StatusServiceUnavailable {
		t.Fatalf("faulted post = %d, want 503", code)
	}
	// An oversized body never reaches the parser.
	if code, _ := postLines(t, url, strings.Repeat("x", 200)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized post = %d, want 413", code)
	}
	// The connector is fine afterwards, numbering from the resumed position.
	code, out := postLines(t, url, lineSeq(1000, 1))
	if code != http.StatusOK || out["records"] != 8 {
		t.Fatalf("post after faults = %d %v, want 200 records=8 (resumed at 7)", code, out)
	}
	stop()
}
