package dnslog

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"baywatch/internal/core"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{Timestamp: 1425303901, ClientIP: "10.1.2.3", QName: "evil.example.com", QType: "A"}
	got, err := ParseRecord(r.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip: got %+v want %+v", got, r)
	}
}

func TestParseRecordErrors(t *testing.T) {
	for _, line := range []string{"", "a b c", "notanepoch 10.0.0.1 x.com A", "1 2 3 4 5"} {
		if _, err := ParseRecord(line); !errors.Is(err, ErrBadRecord) {
			t.Errorf("ParseRecord(%q) err = %v", line, err)
		}
	}
}

func proxyRecords(ts []int64, ip, host string) []*proxylog.Record {
	out := make([]*proxylog.Record, len(ts))
	for i, v := range ts {
		out[i] = &proxylog.Record{Timestamp: v, ClientIP: ip, Host: host}
	}
	return out
}

func TestFromProxyTraceCaching(t *testing.T) {
	// Requests every 10 s with a 25 s TTL: only every third request
	// triggers a query.
	var ts []int64
	for i := 0; i < 9; i++ {
		ts = append(ts, int64(i*10))
	}
	qs := FromProxyTrace(proxyRecords(ts, "10.0.0.1", "x.com"), 25)
	if len(qs) != 3 {
		t.Fatalf("queries = %d, want 3 (cache suppression)", len(qs))
	}
	if qs[0].Timestamp != 0 || qs[1].Timestamp != 30 || qs[2].Timestamp != 60 {
		t.Errorf("query times = %v", []int64{qs[0].Timestamp, qs[1].Timestamp, qs[2].Timestamp})
	}
	// TTL 0: every request queries.
	qs = FromProxyTrace(proxyRecords(ts, "10.0.0.1", "x.com"), 0)
	if len(qs) != 9 {
		t.Errorf("TTL 0 queries = %d, want 9", len(qs))
	}
}

func TestFromProxyTracePerClientCaches(t *testing.T) {
	recs := append(proxyRecords([]int64{0, 5}, "10.0.0.1", "x.com"),
		proxyRecords([]int64{2, 7}, "10.0.0.2", "x.com")...)
	qs := FromProxyTrace(recs, 60)
	if len(qs) != 2 {
		t.Fatalf("queries = %d, want 2 (one per client)", len(qs))
	}
}

func TestToPairEvents(t *testing.T) {
	qs := []*Record{{Timestamp: 100, ClientIP: "10.0.0.1", QName: "X.COM", QType: "A"}}
	evs := ToPairEvents(qs, nil)
	if len(evs) != 1 || evs[0].Source != "10.0.0.1" || evs[0].Destination != "x.com" {
		t.Errorf("events = %+v", evs)
	}
	corr, err := proxylog.NewCorrelator([]proxylog.Lease{{IP: "10.0.0.1", MAC: "aa", Start: 0, End: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	evs = ToPairEvents(qs, corr)
	if evs[0].Source != "aa" {
		t.Errorf("source = %q, want MAC", evs[0].Source)
	}
	qs[0].ClientIP = "192.168.1.1"
	evs = ToPairEvents(qs, corr)
	if evs[0].Source != "ip:192.168.1.1" {
		t.Errorf("fallback source = %q", evs[0].Source)
	}
}

// TestBeaconDetectableThroughDNSView: a beacon with a period above the
// cache TTL remains detectable in the resolver's query log.
func TestBeaconDetectableThroughDNSView(t *testing.T) {
	det := core.NewDetector(core.DefaultConfig())
	// 300 s beacon, 120 s TTL: every beacon query misses the cache.
	var recs []*proxylog.Record
	for i := 0; i < 100; i++ {
		recs = append(recs, &proxylog.Record{Timestamp: int64(i * 300), ClientIP: "10.0.0.1", Host: "cc.evil"})
	}
	qs := FromProxyTrace(recs, 120)
	if len(qs) != 100 {
		t.Fatalf("queries = %d", len(qs))
	}
	sums, _, err := pipeline.ExtractSummaries(context.Background(), ToPairEvents(qs, nil), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := det.Detect(sums[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Periodic {
		t.Fatal("beacon invisible through DNS view")
	}
	if p := res.DominantPeriods()[0]; p < 285 || p > 315 {
		t.Errorf("period = %v, want ~300", p)
	}
}

// TestFastBeaconAliasedByCache: a beacon faster than the TTL is observed
// at the TTL cadence — the periodicity survives, shifted to the cache
// period (the paper's "may not see every DNS query due to caching").
func TestFastBeaconAliasedByCache(t *testing.T) {
	var recs []*proxylog.Record
	for i := 0; i < 3000; i++ {
		recs = append(recs, &proxylog.Record{Timestamp: int64(i * 10), ClientIP: "10.0.0.1", Host: "cc.evil"})
	}
	qs := FromProxyTrace(recs, 300)
	sums, _, err := pipeline.ExtractSummaries(context.Background(), ToPairEvents(qs, nil), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewDetector(core.DefaultConfig()).Detect(sums[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Periodic {
		t.Fatal("cache-aliased beacon not detected")
	}
	if p := res.DominantPeriods()[0]; p < 285 || p > 315 {
		t.Errorf("aliased period = %v, want ~300 (the TTL)", p)
	}
}
