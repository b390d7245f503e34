package netflow

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"baywatch/internal/core"
	"baywatch/internal/pipeline"
	"baywatch/internal/proxylog"
)

func TestRecordRoundTrip(t *testing.T) {
	r := &Record{
		Start: 1425303901, End: 1425303902,
		SrcIP: "10.1.2.3", SrcPort: 40123,
		DstIP: "93.184.216.34", DstPort: 443,
		Proto: 6, Bytes: 5321, Packets: 7,
	}
	got, err := ParseRecord(r.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip: got %+v want %+v", got, r)
	}
}

func TestParseRecordErrors(t *testing.T) {
	good := (&Record{SrcIP: "a", DstIP: "b"}).Format()
	cases := []string{
		"",
		"1,2,3",
		strings.Replace(good, "0,", "x,", 1),
	}
	for _, line := range cases {
		if _, err := ParseRecord(line); !errors.Is(err, ErrBadRecord) {
			t.Errorf("ParseRecord(%q) err = %v", line, err)
		}
	}
	// Field-by-field numeric errors.
	fields := strings.Split(good, ",")
	for _, idx := range []int{0, 1, 3, 5, 6, 7, 8} {
		bad := append([]string(nil), fields...)
		bad[idx] = "zz"
		if _, err := ParseRecord(strings.Join(bad, ",")); !errors.Is(err, ErrBadRecord) {
			t.Errorf("field %d: err = %v", idx, err)
		}
	}
}

func TestFromProxyTrace(t *testing.T) {
	recs := []*proxylog.Record{
		{Timestamp: 100, ClientIP: "10.0.0.1", Host: "a.com", Scheme: "https", BytesIn: 100, BytesOut: 2000},
		{Timestamp: 200, ClientIP: "10.0.0.1", Host: "a.com", Scheme: "http", BytesIn: 50, BytesOut: 500},
		{Timestamp: 300, ClientIP: "10.0.0.2", Host: "b.com", Scheme: "https"},
	}
	flows := FromProxyTrace(recs)
	if len(flows) != 3 {
		t.Fatalf("flows = %d", len(flows))
	}
	if flows[0].DstPort != 443 || flows[1].DstPort != 80 {
		t.Errorf("ports = %d, %d", flows[0].DstPort, flows[1].DstPort)
	}
	// Same domain maps to the same fake IP; different domains differ.
	if flows[0].DstIP != flows[1].DstIP {
		t.Error("same domain mapped to different IPs")
	}
	if flows[0].DstIP == flows[2].DstIP {
		t.Error("different domains collided (unlikely)")
	}
	if flows[0].Bytes != 2100 {
		t.Errorf("bytes = %d", flows[0].Bytes)
	}
}

func TestFakeIPStableAndPlausible(t *testing.T) {
	a := fakeIPFor("example.com")
	if a != fakeIPFor("EXAMPLE.com") {
		t.Error("fake IP not case-stable")
	}
	first := strings.Split(a, ".")[0]
	if first == "0" || first == "10" || first == "127" {
		t.Errorf("implausible first octet: %s", a)
	}
}

func TestToPairEvents(t *testing.T) {
	flows := []*Record{{Start: 100, SrcIP: "10.0.0.1", DstIP: "1.2.3.4", DstPort: 443}}
	evs := ToPairEvents(flows, nil)
	if evs[0].Source != "10.0.0.1" || evs[0].Destination != "1.2.3.4:443" {
		t.Errorf("event = %+v", evs[0])
	}
	corr, err := proxylog.NewCorrelator([]proxylog.Lease{{IP: "10.0.0.1", MAC: "m", Start: 0, End: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if evs = ToPairEvents(flows, corr); evs[0].Source != "m" {
		t.Errorf("source = %q", evs[0].Source)
	}
}

// TestBeaconDetectableThroughFlowView: the timing signal survives the
// domain-less flow representation.
func TestBeaconDetectableThroughFlowView(t *testing.T) {
	var recs []*proxylog.Record
	for i := 0; i < 150; i++ {
		recs = append(recs, &proxylog.Record{Timestamp: int64(i * 120), ClientIP: "10.0.0.1", Host: "cc.evil", Scheme: "http"})
	}
	flows := FromProxyTrace(recs)
	sums, _, err := pipeline.ExtractSummaries(context.Background(), ToPairEvents(flows, nil), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	res, err := core.NewDetector(core.DefaultConfig()).Detect(sums[0])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Periodic {
		t.Fatal("beacon invisible through flow view")
	}
	if p := res.DominantPeriods()[0]; p < 114 || p > 126 {
		t.Errorf("period = %v, want ~120", p)
	}
}
