package source

import (
	"fmt"
	"hash/maphash"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestInternRepeatedLinesAllocateOnlyPaths: once a connector's cache holds
// a line's client and host, parsing the line again allocates only its path
// — one string a line, and neither the endpoints nor the event, appended
// into a reused slice.
func TestInternRepeatedLinesAllocateOnlyPaths(t *testing.T) {
	lines := [][]byte{
		[]byte(logLine(1000, "10.0.0.1", "evil.example", "/cb")),
		[]byte(logLine(1060, "10.0.0.2", "cdn.example", "/static/app.js")),
		[]byte(logLine(1120, "10.0.0.1", "evil.example", "/cb")),
	}
	for i, l := range lines {
		lines[i] = l[:len(l)-1] // the connectors hand lines over without the newline
	}
	lines[2] = append(lines[2], '\r') // a CRLF producer's line
	p := new(lineParser)
	events := make([]Event, 0, len(lines))
	parseAll := func() {
		events = events[:0]
		for _, l := range lines {
			var skip int
			if events, skip = p.appendLineEvents(events, l); skip != 0 {
				t.Fatalf("line %q skipped", l)
			}
		}
	}
	parseAll() // warm the cache
	if n := testing.AllocsPerRun(100, parseAll); n != float64(len(lines)) {
		t.Fatalf("re-parsing %d cached lines allocates %.1f times a run, want one path each", len(lines), n)
	}
	if n := testing.AllocsPerRun(100, func() { p.strs.intern([]byte("evil.example")) }); n != 0 {
		t.Fatalf("a cache hit in intern allocates %.1f times, want 0", n)
	}
	want := Event{Source: "10.0.0.1", Destination: "evil.example", TS: 1120, Path: "/cb"}
	if events[2] != want {
		t.Fatalf("third event = %+v, want %+v", events[2], want)
	}
}

// TestInternSlotCollision: two strings that hash to the same slot evict one
// another, and each still comes back intact every time it is looked up.
func TestInternSlotCollision(t *testing.T) {
	slot := func(s string) uint64 { return maphash.String(internSeed, s) >> (64 - internBits) }
	seen := map[uint64]string{}
	var a, b string
	for i := 0; a == ""; i++ {
		s := fmt.Sprintf("host-%d.example", i)
		if other, ok := seen[slot(s)]; ok {
			a, b = other, s
		}
		seen[slot(s)] = s
	}
	var c internCache
	for i := 0; i < 4; i++ {
		for _, s := range []string{a, b, a, a, b} {
			if got := c.intern([]byte(s)); got != s {
				t.Fatalf("intern(%q) = %q; %q shares its slot", s, got, map[string]string{a: b, b: a}[s])
			}
		}
	}
}

// TestInternSkipsLongFields: a field past internMaxLen comes back intact but
// is never stored, so the cache pins at most internMaxLen bytes a slot.
func TestInternSkipsLongFields(t *testing.T) {
	var c internCache
	for _, n := range []int{internMaxLen, internMaxLen + 1, 1 << 20} {
		s := "/" + strings.Repeat("p", n-1)
		if got := c.intern([]byte(s)); got != s {
			t.Fatalf("intern of a %d-byte field returned %d bytes", n, len(got))
		}
		stored := slices.Contains(c.slots[:], s)
		if want := n <= internMaxLen; stored != want {
			t.Fatalf("%d-byte field stored = %v, want %v", n, stored, want)
		}
	}
}

// TestDeliveredEventsOutliveReadBuffer: the strings a connector delivers are
// the cache's own copies, never views of the read chunk, so overwriting the
// chunk after Deliver — as the next read does — leaves every delivered
// event as it was, hit or miss.
func TestDeliveredEventsOutliveReadBuffer(t *testing.T) {
	text := logLine(1000, "10.0.0.1", "evil.example", "/cb") +
		logLine(1060, "10.0.0.9", "other.example", "/x") +
		logLine(1120, "10.0.0.1", "evil.example", "/cb")
	framer := lineFramer{max: maxLineBytes}
	lines := new(lineParser)
	var delivered [][]Event
	for round := 0; round < 2; round++ { // a miss for every string, then a hit
		chunk := []byte(text)
		events, skipped := framer.scan(chunk, nil, lines)
		if skipped != 0 || len(events) != 3 {
			t.Fatalf("round %d: %d event(s), %d skipped; want 3 and 0", round, len(events), skipped)
		}
		delivered = append(delivered, events)
		for i := range chunk {
			chunk[i] = 'X'
		}
	}
	want := []Event{
		{Source: "10.0.0.1", Destination: "evil.example", TS: 1000, Path: "/cb"},
		{Source: "10.0.0.9", Destination: "other.example", TS: 1060, Path: "/x"},
		{Source: "10.0.0.1", Destination: "evil.example", TS: 1120, Path: "/cb"},
	}
	for round, events := range delivered {
		if !reflect.DeepEqual(events, want) {
			t.Fatalf("round %d: after the chunk was overwritten the events read %+v, want %+v", round, events, want)
		}
	}
}
