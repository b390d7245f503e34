package proxylog

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// referenceRead is the sequential line reader the whole-file reads were
// built on before they shared the sharded scan's splitter: bufio.Scanner
// with a 1 MiB token cap and ParseRecord per line. It is the reference
// ReadAll and ReadAllLenient are held to. maxBad == 0 is strict mode.
func referenceRead(path string, maxBad int) ([]*Record, ReadStats, error) {
	var out []*Record
	var stats ReadStats
	f, err := os.Open(path)
	if err != nil {
		return out, stats, fmt.Errorf("proxylog: open: %w", err)
	}
	defer f.Close()

	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return out, stats, fmt.Errorf("proxylog: gzip open: %w", err)
		}
		defer gz.Close()
		src = gz
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		rec, err := ParseRecord(line)
		if err != nil {
			if maxBad == 0 {
				return out, stats, fmt.Errorf("proxylog: line %d: %w", lineNo, err)
			}
			stats.SkippedLines++
			if stats.FirstSkipped == "" {
				stats.FirstSkipped = fmt.Sprintf("line %d: %v", lineNo, err)
			}
			if stats.SkippedLines > maxBad {
				return out, stats, fmt.Errorf("proxylog: more than %d malformed lines (first: %s)", maxBad, stats.FirstSkipped)
			}
			continue
		}
		stats.Records++
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return out, stats, fmt.Errorf("proxylog: scan: %w", err)
	}
	return out, stats, nil
}

// readModes are the read configurations compared with the reference:
// strict, and lenient with budgets 0 (unlimited) through 3.
var readModes = []struct {
	name    string
	lenient bool
	budget  int
}{
	{"strict", false, 0},
	{"lenient0", true, 0},
	{"lenient1", true, 1},
	{"lenient2", true, 2},
	{"lenient3", true, 3},
}

// maxBadOf maps a read mode to the internal budget: 0 is strict.
func maxBadOf(lenient bool, budget int) int {
	if !lenient {
		return 0
	}
	if budget <= 0 {
		return math.MaxInt
	}
	return budget
}

// sameReadError reports whether a read failed as the reference did. Only
// an overlong line may word its error differently: both sides must still
// reject it, after the same records.
func sameReadError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	if errors.Is(want, bufio.ErrTooLong) {
		return errors.Is(got, errLineTooLong)
	}
	return got.Error() == want.Error()
}

// checkRead compares one read with the reference's.
func checkRead(t *testing.T, what string, got []*Record, gotStats ReadStats, gotErr error, want []*Record, wantStats ReadStats, wantErr error, stats bool) {
	t.Helper()
	if !sameReadError(gotErr, wantErr) {
		t.Fatalf("%s: err = %v, reference %v", what, gotErr, wantErr)
	}
	if stats && gotStats != wantStats {
		t.Fatalf("%s: stats = %+v, reference %+v", what, gotStats, wantStats)
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: %d records (nil %v), reference %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if *got[i] != *want[i] {
			t.Fatalf("%s: record %d = %+v, reference %+v", what, i, *got[i], *want[i])
		}
	}
}

// checkAgainstReference reads path in every mode through ReadAll or
// ReadAllLenient at each GOMAXPROCS in procs (the current one when procs
// is empty), and through readSplits over SplitFile(path, n) for each n,
// and fails on any difference from referenceRead.
func checkAgainstReference(t *testing.T, path string, procs, splitCounts []int) {
	t.Helper()
	if len(procs) == 0 {
		procs = []int{runtime.GOMAXPROCS(0)}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range readModes {
		maxBad := maxBadOf(m.lenient, m.budget)
		want, wantStats, wantErr := referenceRead(path, maxBad)
		for _, p := range procs {
			runtime.GOMAXPROCS(p)
			var got []*Record
			var gotStats ReadStats
			var gotErr error
			if m.lenient {
				got, gotStats, gotErr = ReadAllLenient(path, m.budget)
			} else {
				got, gotErr = ReadAll(path)
			}
			checkRead(t, fmt.Sprintf("%s %s GOMAXPROCS=%d", filepath.Base(path), m.name, p),
				got, gotStats, gotErr, want, wantStats, wantErr, m.lenient)
		}
		for _, n := range splitCounts {
			splits, err := SplitFile(path, n)
			if err != nil {
				if wantErr == nil {
					t.Fatal(err)
				}
				continue // a missing file: the whole-file read above covered it
			}
			got, gotStats, gotErr := readSplits(splits, maxBad)
			checkRead(t, fmt.Sprintf("%s %s over %d split(s)", filepath.Base(path), m.name, len(splits)),
				got, gotStats, gotErr, want, wantStats, wantErr, m.lenient)
		}
	}
}

// paddedLine renders a well-formed record line whose user agent pads it
// to exactly width bytes.
func paddedLine(ts int64, width int) string {
	r := sampleRecord()
	r.Timestamp, r.UserAgent = ts, ""
	r.UserAgent = strings.Repeat("u", width-len(r.Format()))
	return r.Format()
}

// corruptAt makes the line holding byte off malformed without moving a
// byte: the first digit of its epoch becomes 'x'. Blank and short lines
// pass the corruption on to the next line long enough to hold it.
func corruptAt(content []byte, off int) {
	start := bytes.LastIndexByte(content[:off], '\n') + 1
	for start < len(content) {
		end := bytes.IndexByte(content[start:], '\n')
		if end < 0 {
			end = len(content) - start
		}
		if end > 20 {
			content[start+20] = 'x'
			return
		}
		start += end + 1
	}
}

// bigFixture is a multi-split file of 900-1099 byte lines, with blank
// lines and CRLF endings sprinkled through it. The line holding byte
// boundary+shift is malformed, for every split boundary of
// SplitFile(path, k), k = 2..8: shift 0 corrupts the line straddling the
// boundary, which the earlier split owns, and a shift past the longest
// line one the later split owns.
func bigFixture(t *testing.T, dir, name string, shift int) string {
	t.Helper()
	var b bytes.Buffer
	for i := 0; b.Len() < 8*minReadSplit+minReadSplit/2; i++ {
		b.WriteString(paddedLine(1425303901+int64(i), 900+i%200))
		switch i % 97 {
		case 13:
			b.WriteString("\r\n")
		case 41:
			b.WriteString("\n\n")
		default:
			b.WriteByte('\n')
		}
	}
	content := b.Bytes()
	size := len(content)
	for k := 2; k <= 8; k++ {
		for i := 1; i < k; i++ {
			corruptAt(content, i*(size/k)+shift)
		}
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWholeFileReadersMatchReference holds ReadAll and ReadAllLenient to
// the sequential Scanner reader: the same records, stats, error text and
// line numbers at every GOMAXPROCS, over plain files that split and gzip
// files that do not, and over explicit split plans of every fixture.
func TestWholeFileReadersMatchReference(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, content []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := sampleRecord().Format()
	bad := strings.Replace(good, " 200 ", " 2OO ", 1)
	edge := good + "\r\n\n" + bad + "\n\r\n" + good + "\r\n" + bad + "\r\n\n\n" + good + "\n" + bad + "\n" + good
	// The first bad line of late.log falls in a later split of every plan,
	// so its number counts the lines, blank ones too, of the splits before.
	late := strings.Repeat(good+"\n\r\n\n", 12) + bad + "\n" + good + "\n" + bad + "\n" + bad
	paths := []string{
		write("edge.log", []byte(edge)),
		write("edge-final-newline.log", []byte(edge+"\n")),
		write("late.log", []byte(late)),
		write("empty.log", nil),
		write("blank.log", []byte("\n\r\n\n")),
		write("garbage.log", []byte("garbage line")),
		filepath.Join(dir, "missing.log"),
		bigFixture(t, dir, "big-straddle.log", 0),
		bigFixture(t, dir, "big-after.log", 1100),
	}
	// Lines of 2^20-1, 2^20 and 2^20+1 bytes: the first is the longest a
	// 1 MiB token buffer holds with its newline, the others fail. Each
	// sits between ordinary lines, and again last without a newline.
	for _, width := range []int{maxLineBytes - 1, maxLineBytes, maxLineBytes + 1} {
		long := paddedLine(1425309999, width)
		paths = append(paths,
			write(fmt.Sprintf("long-%d.log", width), []byte(good+"\n"+bad+"\n"+long+"\n"+good+"\n")),
			write(fmt.Sprintf("long-%d-last.log", width), []byte(good+"\n"+bad+"\n"+long)))
	}
	// Gzip: whole, and truncated mid-stream, mid-header and at one byte.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	for i := 0; i < 300; i++ {
		fmt.Fprintf(zw, "%s\n", paddedLine(1425303901+int64(i), 120))
		if i%50 == 7 {
			fmt.Fprintf(zw, "%s\r\n\n", bad)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	data := gz.Bytes()
	paths = append(paths, write("whole.log.gz", data))
	for _, keep := range []int{len(data) / 2, len(data) / 3, len(data) - 4, 10, 1} {
		paths = append(paths, write(fmt.Sprintf("trunc-%d.log.gz", keep), data[:keep]))
	}

	for _, path := range paths {
		checkAgainstReference(t, path, []int{1, 2, 3, 4, 8}, []int{2, 3, 4, 8})
	}
}

// FuzzReadAll feeds arbitrary file bytes to the whole-file readers, read
// whole and over a fuzzed number of splits, and compares every mode with
// the reference reader.
func FuzzReadAll(f *testing.F) {
	good := sampleRecord().Format()
	f.Add([]byte(good+"\n"+good+"\n"), uint8(2))
	f.Add([]byte("one\r\n\ntwo\n\r\nthree"), uint8(3))
	f.Add([]byte(good+"\r\nnot a record\n\n"+good), uint8(4))
	f.Add([]byte("\n\n\n"+good), uint8(7))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, splits uint8) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, path, nil, []int{1 + int(splits%8)})
	})
}

// TestReadAllAllocsPerRecord pins the materialization cost of a
// whole-file read: one string per record, with Records carved from
// slabs, so a 10k-line file costs at most 1.1 allocations per record.
func TestReadAllAllocsPerRecord(t *testing.T) {
	const lines = 10000
	var b strings.Builder
	for i := 0; i < lines; i++ {
		r := sampleRecord()
		r.Timestamp += int64(i)
		b.WriteString(r.Format())
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "allocs.log")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		recs, err := ReadAll(path)
		if err != nil || len(recs) != lines {
			t.Fatalf("read %d records, err %v", len(recs), err)
		}
	})
	if perRecord := allocs / lines; perRecord > 1.1 {
		t.Errorf("ReadAll allocates %.3f/record (%.0f per read), want <= 1.1", perRecord, allocs)
	}
}
