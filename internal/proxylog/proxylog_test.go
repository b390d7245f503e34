package proxylog

import (
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecord() *Record {
	return &Record{
		Timestamp: 1425303901,
		ClientIP:  "10.8.1.2",
		Method:    "GET",
		Scheme:    "http",
		Host:      "example.com",
		Path:      "/index.html?q=1",
		Status:    200,
		BytesOut:  5321,
		BytesIn:   411,
		UserAgent: "Mozilla/5.0 (Windows NT 6.1)",
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	line := r.Format()
	got, err := ParseRecord(line)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestRecordFormatShape(t *testing.T) {
	line := sampleRecord().Format()
	if !strings.HasPrefix(line, "2015-03-02 ") {
		t.Errorf("line should start with the UTC date: %q", line)
	}
	if !strings.HasSuffix(line, `"`) {
		t.Errorf("line should end with quoted user agent: %q", line)
	}
}

func TestParseRecordErrors(t *testing.T) {
	cases := []string{
		"",
		"too few fields",
		"2015-03-02 13:45:01 notanepoch 10.8.1.2 GET http h /p 200 1 2 \"ua\"",
		"2015-03-02 13:45:01 1425303901 10.8.1.2 GET http h /p xxx 1 2 \"ua\"",
		"2015-03-02 13:45:01 1425303901 10.8.1.2 GET http h /p 200 x 2 \"ua\"",
		"2015-03-02 13:45:01 1425303901 10.8.1.2 GET http h /p 200 1 x \"ua\"",
		"2015-03-02 13:45:01 1425303901 10.8.1.2 GET http h /p 200 1 2 noquotes",
	}
	for _, line := range cases {
		if _, err := ParseRecord(line); !errors.Is(err, ErrBadRecord) {
			t.Errorf("ParseRecord(%q) err = %v, want ErrBadRecord", line, err)
		}
	}
}

func TestRecordRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := &Record{
			Timestamp: rng.Int63n(2_000_000_000),
			ClientIP:  "10.0.0.1",
			Method:    []string{"GET", "POST", "HEAD"}[rng.Intn(3)],
			Scheme:    []string{"http", "https"}[rng.Intn(2)],
			Host:      "host.example",
			Path:      "/p" + string(rune('a'+rng.Intn(26))),
			Status:    200 + rng.Intn(300),
			BytesOut:  rng.Intn(1 << 20),
			BytesIn:   rng.Intn(1 << 16),
			UserAgent: "UA with spaces and (parens)",
		}
		got, err := ParseRecord(r.Format())
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterReaderPlain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "logs", "day1.log")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Record{sampleRecord(), sampleRecord()}
	want[1].Host = "other.net"
	want[1].Timestamp += 60
	for _, r := range want {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d, want 2", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back mismatch")
	}
}

func TestWriterReaderGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "day1.log.gz")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r := sampleRecord()
		r.Timestamp += int64(i)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("read %d records, want 1000", len(got))
	}
	for i, r := range got {
		if r.Timestamp != sampleRecord().Timestamp+int64(i) {
			t.Fatalf("record %d has timestamp %d: out of file order", i, r.Timestamp)
		}
	}
}

func TestReadAllMissingFile(t *testing.T) {
	if _, err := ReadAll(filepath.Join(t.TempDir(), "missing.log")); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestCorrelator(t *testing.T) {
	leases := []Lease{
		{IP: "10.0.0.1", MAC: "aa:aa", Start: 100, End: 200},
		{IP: "10.0.0.1", MAC: "bb:bb", Start: 200, End: 300},
		{IP: "10.0.0.2", MAC: "aa:aa", Start: 250, End: 400},
	}
	c, err := NewCorrelator(leases)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ip   string
		ts   int64
		want string
		ok   bool
	}{
		{"10.0.0.1", 100, "aa:aa", true},
		{"10.0.0.1", 199, "aa:aa", true},
		{"10.0.0.1", 200, "bb:bb", true},
		{"10.0.0.1", 299, "bb:bb", true},
		{"10.0.0.1", 300, "", false}, // lease expired
		{"10.0.0.1", 50, "", false},  // before first lease
		{"10.0.0.2", 300, "aa:aa", true},
		{"10.0.0.9", 100, "", false}, // unknown ip
	}
	for _, tc := range cases {
		got, err := c.MACFor(tc.ip, tc.ts)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("MACFor(%s, %d) = %q, %v; want %q", tc.ip, tc.ts, got, err, tc.want)
			}
		} else if !errors.Is(err, ErrNoLease) {
			t.Errorf("MACFor(%s, %d) err = %v, want ErrNoLease", tc.ip, tc.ts, err)
		}
	}
}

func TestCorrelatorValidation(t *testing.T) {
	if _, err := NewCorrelator([]Lease{{IP: "", MAC: "m", Start: 0, End: 1}}); err == nil {
		t.Error("expected error for empty IP")
	}
	if _, err := NewCorrelator([]Lease{{IP: "i", MAC: "", Start: 0, End: 1}}); err == nil {
		t.Error("expected error for empty MAC")
	}
	if _, err := NewCorrelator([]Lease{{IP: "i", MAC: "m", Start: 5, End: 5}}); err == nil {
		t.Error("expected error for empty interval")
	}
}

func TestSourceID(t *testing.T) {
	c, err := NewCorrelator([]Lease{{IP: "10.0.0.1", MAC: "aa:aa", Start: 0, End: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	r := sampleRecord()
	r.ClientIP = "10.0.0.1"
	r.Timestamp = 500
	if got := c.SourceID(r); got != "aa:aa" {
		t.Errorf("SourceID = %q, want MAC", got)
	}
	r.ClientIP = "192.168.9.9"
	if got := c.SourceID(r); got != "ip:192.168.9.9" {
		t.Errorf("SourceID fallback = %q", got)
	}
}

func TestCorrelatorUnsortedLeases(t *testing.T) {
	// Leases supplied out of order must still resolve correctly.
	c, err := NewCorrelator([]Lease{
		{IP: "10.0.0.1", MAC: "cc:cc", Start: 300, End: 400},
		{IP: "10.0.0.1", MAC: "aa:aa", Start: 100, End: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MACFor("10.0.0.1", 150)
	if err != nil || got != "aa:aa" {
		t.Errorf("MACFor = %q, %v", got, err)
	}
	got, err = c.MACFor("10.0.0.1", 350)
	if err != nil || got != "cc:cc" {
		t.Errorf("MACFor = %q, %v", got, err)
	}
}
