package source

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLineFramerChunkingInvariant: however a stream is cut into chunks,
// the framer yields the events and skip count of splitting it whole — an
// overlong line is one skip wherever its bytes fall — and never buffers
// more than its bound.
func TestLineFramerChunkingInvariant(t *testing.T) {
	const max = 300
	long := strings.Repeat("y", max+1)
	stream := lineSeq(1000, 3) +
		"not a record\n" +
		"\n" +
		strings.TrimSuffix(logLine(1003, "10.0.0.2", "other.example", "/x"), "\n") + "\r\n" +
		long + "\n" +
		lineSeq(1004, 2) +
		strings.Repeat("z", 3*max) + "\n" +
		strings.Repeat("w", max) + "\n" + // at the bound: kept, and malformed
		strings.TrimSuffix(lineSeq(1006, 1), "\n") // unterminated final line

	// The reference: every line of the whole stream, cut once.
	var want []Event
	wantSkipped := 0
	ref := new(lineParser)
	for rest := []byte(stream); len(rest) > 0; {
		var line []byte
		line, rest, _ = cutLine(rest)
		if len(line) > max {
			wantSkipped++
			continue
		}
		var skip int
		want, skip = ref.appendLineEvents(want, line)
		wantSkipped += skip
	}
	if len(want) != 7 || wantSkipped != 4 {
		t.Fatalf("reference split: %d events, %d skipped; want 7 and 4", len(want), wantSkipped)
	}

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		f := lineFramer{max: max}
		p := new(lineParser)
		var got []Event
		skipped := 0
		for data := []byte(stream); len(data) > 0; {
			n := 1 + rng.Intn(2*max)
			if trial == 0 {
				n = len(data) // one chunk
			}
			n = min(n, len(data))
			events, skip := f.scan(data[:n], nil, p)
			got = append(got, events...)
			skipped += skip
			data = data[n:]
			if len(f.pending) > max {
				t.Fatalf("trial %d: framer holds %d bytes, bound %d", trial, len(f.pending), max)
			}
		}
		events, skip := f.flush(nil, p)
		got = append(got, events...)
		skipped += skip
		if !reflect.DeepEqual(got, want) || skipped != wantSkipped {
			t.Fatalf("trial %d: %d events, %d skipped; want %d and %d\ngot  %+v\nwant %+v",
				trial, len(got), skipped, len(want), wantSkipped, got, want)
		}
	}
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSocketOverlongLineBounded: a producer that streams 2 MiB with no
// newline costs the daemon one skipped line, not 2 MiB of heap. The line
// is dropped once it passes the 1 MiB bound, the connection stays usable,
// and the valid lines after it arrive. The stated bound on live heap
// growth while the connection is open is 512 KiB: the read chunk, the
// test's own write buffer and the delivered events, with the overlong
// line's bytes released.
func TestSocketOverlongLineBounded(t *testing.T) {
	const streamed = 1 << 21
	const heapBound = 512 << 10
	s := &SocketSource{Network: "tcp", Addr: "127.0.0.1:0", SourceName: "sock"}
	arrived := make(chan struct{})
	c := &collectSink{}
	c.onDeliver = func(total int) {
		if total == 3 {
			close(arrived)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	// bounded goroutine: test connector run, cancelled below and awaited on done
	go func() { done <- s.Run(ctx, Position{}, c) }()
	conn, _ := dialSource(t, s)
	defer conn.Close()

	before := liveHeap()
	junk := bytes.Repeat([]byte("x"), 64<<10)
	for sent := 0; sent < streamed; sent += len(junk) {
		if _, err := conn.Write(junk); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write([]byte("\n" + lineSeq(1000, 3))); err != nil {
		t.Fatal(err)
	}
	select {
	case <-arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the valid lines after the overlong one never arrived")
	}
	after := liveHeap()
	runtime.KeepAlive(junk)

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run ended with %v, want cancellation", err)
	}
	sameTS(t, c.tsOf(), tsRange(1000, 3))
	if c.skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the overlong line)", c.skipped)
	}
	t.Logf("live heap grew %d KiB while the connection was open", (int64(after)-int64(before))>>10)
	if after > before && after-before > heapBound {
		t.Fatalf("live heap grew %d KiB while the connection was open, bound %d KiB", (after-before)>>10, heapBound>>10)
	}
}
