package proxylog

import (
	"compress/gzip"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeLines writes content to a temp file and returns its path.
func writeLines(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// collectSplit scans one split and returns the raw lines it delivered.
func collectSplit(t *testing.T, sp Split) []string {
	t.Helper()
	var lines []string
	_, err := scanSplitLines(sp, func(line []byte, lineNo int64) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("scan %s: %v", sp, err)
	}
	return lines
}

// TestSplitPartitionExact is the boundary-protocol property test:
// contiguous splits of one file must partition its lines exactly — no
// loss, no duplication — regardless of where the byte boundaries fall
// inside lines.
func TestSplitPartitionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	var want []string
	for i := 0; i < 400; i++ {
		line := fmt.Sprintf("line-%03d-%s", i, strings.Repeat("x", rng.Intn(40)))
		want = append(want, line)
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
	content := sb.String()
	path := writeLines(t, "a.log", content)
	size := int64(len(content))

	// SplitFile plans at several shard counts.
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		splits, err := SplitFile(path, n)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, sp := range splits {
			if sp.Length >= 0 {
				total += sp.Length
			}
		}
		if len(splits) > 1 && total != size {
			t.Fatalf("n=%d: split lengths sum to %d, file is %d", n, total, size)
		}
		var got []string
		for _, sp := range splits {
			got = append(got, collectSplit(t, sp)...)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d lines delivered, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d line %d: got %q want %q", n, i, got[i], want[i])
			}
		}
	}

	// Adversarial boundaries: random contiguous cut points, including
	// ones inside lines and exactly on newlines.
	for trial := 0; trial < 50; trial++ {
		nCuts := 1 + rng.Intn(6)
		cuts := map[int64]bool{}
		for len(cuts) < nCuts {
			cuts[1+rng.Int63n(size-1)] = true
		}
		offsets := []int64{0}
		for c := range cuts {
			offsets = append(offsets, c)
		}
		offsets = append(offsets, size)
		for i := 0; i < len(offsets); i++ {
			for j := i + 1; j < len(offsets); j++ {
				if offsets[j] < offsets[i] {
					offsets[i], offsets[j] = offsets[j], offsets[i]
				}
			}
		}
		var got []string
		for i := 0; i+1 < len(offsets); i++ {
			sp := Split{Path: path, Offset: offsets[i], Length: offsets[i+1] - offsets[i]}
			got = append(got, collectSplit(t, sp)...)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v): %d lines, want %d", trial, offsets, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d line %d: got %q want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSplitEdgeCases covers CRLF, empty lines, and a missing trailing
// newline — all must match the whole-file reader's line treatment.
func TestSplitEdgeCases(t *testing.T) {
	content := "one\r\n\ntwo\n\r\nthree" // CRLF, empty lines, no final newline
	path := writeLines(t, "edge.log", content)
	got := collectSplit(t, Split{Path: path, Offset: 0, Length: -1})
	want := []string{"one", "two", "three"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d: got %q want %q", i, got[i], want[i])
		}
	}

	empty := writeLines(t, "empty.log", "")
	if lines := collectSplit(t, Split{Path: empty, Offset: 0, Length: -1}); len(lines) != 0 {
		t.Fatalf("empty file delivered %v", lines)
	}
}

// TestForEachSplitLenient exercises the per-shard lenient budget: skips
// are counted with split-relative diagnostics, and one over budget
// aborts.
func TestForEachSplitLenient(t *testing.T) {
	good := sampleRecord().Format()
	content := good + "\nBAD LINE\n" + good + "\nANOTHER BAD\n" + good + "\n"
	path := writeLines(t, "lenient.log", content)
	sp := Split{Path: path, Offset: 0, Length: -1}

	stats, err := ForEachSplit(sp, 2, func(v *RecordView) error { return nil })
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if stats.Records != 3 || stats.SkippedLines != 2 {
		t.Fatalf("stats = %+v, want 3 records / 2 skipped", stats)
	}
	if !strings.Contains(stats.FirstSkipped, "line 2") {
		t.Errorf("FirstSkipped = %q, want split-relative line 2", stats.FirstSkipped)
	}

	if _, err := ForEachSplit(sp, 1, func(v *RecordView) error { return nil }); err == nil {
		t.Fatal("budget of 1 with 2 bad lines did not abort")
	}

	// Strict mode aborts on the first malformed line.
	if _, err := ForEachSplit(sp, 0, func(v *RecordView) error { return nil }); err == nil {
		t.Fatal("strict mode did not abort")
	}
}

// TestForEachSplitNamesBadField: the zero-copy parser only says "malformed
// record"; a line the scan reports — the strict abort, the first lenient
// skip — must name the offending field the way ParseRecord's errors do.
func TestForEachSplitNamesBadField(t *testing.T) {
	good := sampleRecord().Format()
	badEpoch := strings.Replace(good, " 1425303901 ", " 14253o3901 ", 1)
	badStatus := strings.Replace(good, " 200 ", " 2OO ", 1)
	if badEpoch == good || badStatus == good {
		t.Fatalf("fixture lines were not corrupted: %q", good)
	}
	path := writeLines(t, "fields.log", good+"\n"+badStatus+"\n"+badEpoch+"\n")
	sp := Split{Path: path, Offset: 0, Length: -1}
	nop := func(*RecordView) error { return nil }

	_, err := ForEachSplit(sp, 0, nop)
	if err == nil || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("strict err = %v, want ErrBadRecord", err)
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "status:") {
		t.Errorf("strict err = %q, want line 2 and the status field named", err)
	}

	stats, err := ForEachSplit(sp, 5, nop)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SkippedLines != 2 || !strings.Contains(stats.FirstSkipped, "line 2: ") || !strings.Contains(stats.FirstSkipped, "status:") {
		t.Errorf("stats = %+v, want 2 skipped and FirstSkipped naming line 2's status field", stats)
	}

	// Over budget, the abort quotes the first skip's detail.
	_, err = ForEachSplit(sp, 1, nop)
	if err == nil || !strings.Contains(err.Error(), "status:") {
		t.Errorf("over-budget err = %v, want the first skip's field detail", err)
	}
}

// TestSplitGzip pins gzip behavior: never split, always scanned whole.
func TestSplitGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.log.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	rec := sampleRecord().Format()
	for i := 0; i < 10; i++ {
		fmt.Fprintln(zw, rec)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if Splittable(path) {
		t.Error("gzip file reported splittable")
	}
	splits, err := SplitFile(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || splits[0].Length != -1 {
		t.Fatalf("gzip split plan = %v, want one whole-file split", splits)
	}
	stats, err := ForEachSplit(splits[0], 0, func(v *RecordView) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 10 {
		t.Fatalf("records = %d, want 10", stats.Records)
	}

	// A byte-range split of a gzip file is a planning bug; reject it.
	if _, err := ForEachSplit(Split{Path: path, Offset: 1, Length: 5}, 0, func(v *RecordView) error { return nil }); err == nil {
		t.Fatal("bounded gzip split accepted")
	}
}

// TestForEachSplitViewReuse documents that the callback's view is reused:
// retaining fields across calls is a bug the test would catch by value
// corruption.
func TestForEachSplitViewReuse(t *testing.T) {
	r1, r2 := *sampleRecord(), *sampleRecord()
	r1.Host, r2.Host = "first.example", "second.example"
	path := writeLines(t, "reuse.log", r1.Format()+"\n"+r2.Format()+"\n")
	var hostsLive []string
	var hostsCopied []string
	var views []*RecordView
	_, err := ForEachSplit(Split{Path: path, Offset: 0, Length: -1}, 0, func(v *RecordView) error {
		views = append(views, v)
		hostsCopied = append(hostsCopied, string(v.Host))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		hostsLive = append(hostsLive, string(v.Host))
	}
	if hostsCopied[0] != "first.example" || hostsCopied[1] != "second.example" {
		t.Fatalf("copied hosts = %v", hostsCopied)
	}
	// Both retained views alias the same storage; by the end they cannot
	// still both hold their original values.
	if views[0] != views[1] {
		t.Error("expected the same view to be reused across records")
	}
	_ = hostsLive
}
