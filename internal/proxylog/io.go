package proxylog

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// Writer streams records to an (optionally gzip-compressed) log file.
type Writer struct {
	f   *os.File
	gz  *gzip.Writer
	buf *bufio.Writer
	n   int64
}

// NewWriter creates the file at path (directories are created as needed).
// When the path ends in ".gz" the stream is gzip-compressed.
func NewWriter(path string) (*Writer, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("proxylog: create dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("proxylog: create: %w", err)
	}
	w := &Writer{f: f}
	var sink io.Writer = f
	if strings.HasSuffix(path, ".gz") {
		w.gz = gzip.NewWriter(f)
		sink = w.gz
	}
	w.buf = bufio.NewWriterSize(sink, 1<<20)
	return w, nil
}

// Write appends one record.
func (w *Writer) Write(r *Record) error {
	if _, err := w.buf.WriteString(r.Format()); err != nil {
		return fmt.Errorf("proxylog: write: %w", err)
	}
	if err := w.buf.WriteByte('\n'); err != nil {
		return fmt.Errorf("proxylog: write: %w", err)
	}
	w.n++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() int64 { return w.n }

// Close flushes and closes the underlying file.
func (w *Writer) Close() error {
	if err := w.buf.Flush(); err != nil {
		w.f.Close()
		return fmt.Errorf("proxylog: flush: %w", err)
	}
	if w.gz != nil {
		if err := w.gz.Close(); err != nil {
			w.f.Close()
			return fmt.Errorf("proxylog: gzip close: %w", err)
		}
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("proxylog: close: %w", err)
	}
	return nil
}

// ReadAll parses every record in the file at path (gzip-decoded when the
// name ends in ".gz"). A malformed line aborts with an error carrying its
// line number; the records before it are returned with the error.
func ReadAll(path string) ([]*Record, error) {
	recs, _, err := readAll(path, 0)
	return recs, err
}

// ReadStats reports what a lenient read skipped.
type ReadStats struct {
	// Records is the number of well-formed records delivered.
	Records int
	// SkippedLines is the number of malformed lines skipped.
	SkippedLines int
	// FirstSkipped describes the first skipped line (line number and parse
	// error), for the operator's log.
	FirstSkipped string
}

// ReadAllLenient is ReadAll skipping malformed lines instead of aborting,
// up to maxBad of them (maxBad <= 0 means unlimited). The returned stats
// report how much was skipped; truly broken files — more than maxBad bad
// lines, or a truncated/corrupt gzip stream — still error. Use this when
// a day of logs must be processed even if a log shipper wrote garbage
// into it.
func ReadAllLenient(path string, maxBad int) ([]*Record, ReadStats, error) {
	if maxBad <= 0 {
		maxBad = math.MaxInt
	}
	return readAll(path, maxBad)
}

// minReadSplit is the smallest byte range a whole-file read parses on a
// goroutine of its own.
const minReadSplit = 1 << 20

// readAll is the shared whole-file reader: maxBad == 0 is strict mode
// (the first malformed line aborts), maxBad > 0 tolerates up to maxBad
// malformed lines. A plain file is cut into up to GOMAXPROCS splits of at
// least minReadSplit bytes; a gzip file is one split.
func readAll(path string, maxBad int) ([]*Record, ReadStats, error) {
	// A stat failure leaves one split, whose open reports it.
	n := 1
	if fi, err := os.Stat(path); err == nil {
		n = min(runtime.GOMAXPROCS(0), int(fi.Size()/minReadSplit))
	}
	splits, err := SplitFile(path, n)
	if err != nil {
		return nil, ReadStats{}, err
	}
	return readSplits(splits, maxBad)
}

// readSplits parses the contiguous splits of one file in parallel, each
// through the sharded scan's line splitter and view parser, and merges
// them into the result of one sequential read. Splits do not cancel one
// another: which failure comes first is a question of file order, which
// only the merge can answer. I/O-level failures (unreadable file, corrupt
// gzip, overlong line) always abort: they mean lost data, not a dirty
// line.
func readSplits(splits []Split, maxBad int) ([]*Record, ReadStats, error) {
	parts := make([]splitRecords, len(splits))
	if len(splits) == 1 {
		parts[0].scan(splits[0], maxBad)
	} else {
		var wg sync.WaitGroup
		for i := range splits {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[i].scan(splits[i], maxBad)
			}()
		}
		wg.Wait()
	}
	return mergeSplits(parts, maxBad)
}

// Record slabs grow geometrically from minSlab to maxSlab records
// (32 KiB to 512 KiB), so a small file does not pay for a large slab and
// a large one allocates once per maxSlab records.
const (
	minSlab = 256
	maxSlab = 4096
)

// errSplitDone stops a split whose malformed lines alone exceed the
// budget: nothing after them can be part of the result.
var errSplitDone = errors.New("proxylog: split over budget")

// splitRecords is one split's share of a whole-file read.
type splitRecords struct {
	// slabs hold the split's records in line order.
	slabs [][]Record
	// n is the number of records parsed.
	n int
	// lines is the number of lines the split consumed, blank ones
	// included; the merge numbers the next split's lines after them.
	lines int64
	// skips[i] is the number of records before the split's i-th
	// malformed line; the scan stops at the one that exceeds maxBad.
	skips []int
	// firstLine and firstErr are the first malformed line's split-relative
	// number and ParseRecord error.
	firstLine int64
	firstErr  error
	// err is the I/O failure that ended the split.
	err error
}

func (sr *splitRecords) scan(sp Split, maxBad int) {
	var view RecordView
	sr.slabs = make([][]Record, 0, 8) // 8 slabs hold ~20k records
	sr.lines, sr.err = scanSplitLines(sp, func(line []byte, lineNo int64) error {
		if perr := ParseRecordView(line, &view); perr != nil {
			if len(sr.skips) == 0 {
				sr.firstLine, sr.firstErr = lineNo, badRecordDetail(line, perr)
			}
			sr.skips = append(sr.skips, sr.n)
			if len(sr.skips) > maxBad {
				return errSplitDone
			}
			return nil
		}
		sr.add(line, &view)
		return nil
	})
	if sr.err == errSplitDone {
		sr.err = nil
	}
}

// add materializes the parsed line as the split's next Record with one
// string copy of the line: every field is a substring of it.
func (sr *splitRecords) add(line []byte, v *RecordView) {
	last := len(sr.slabs) - 1
	if last < 0 || len(sr.slabs[last]) == cap(sr.slabs[last]) {
		size := minSlab
		if last >= 0 {
			size = min(2*cap(sr.slabs[last]), maxSlab)
		}
		sr.slabs = append(sr.slabs, make([]Record, 0, size))
		last++
	}
	s := string(line)
	sr.slabs[last] = append(sr.slabs[last], Record{
		Timestamp: v.Timestamp,
		ClientIP:  substr(s, line, v.ClientIP),
		Method:    substr(s, line, v.Method),
		Scheme:    substr(s, line, v.Scheme),
		Host:      substr(s, line, v.Host),
		Path:      substr(s, line, v.Path),
		Status:    v.Status,
		BytesOut:  v.BytesOut,
		BytesIn:   v.BytesIn,
		UserAgent: substr(s, line, v.UserAgent),
	})
	sr.n++
}

// substr returns the part of s, a copy of line, that field — a subslice
// of line — covers.
func substr(s string, line, field []byte) string {
	off := cap(line) - cap(field)
	return s[off : off+len(field)]
}

// mergeSplits turns per-split results into one sequential read's: line
// numbers become file-global, the budget applies to the skips in file
// order, and the first failure in file order — the malformed line that
// breaks the budget, or an I/O error — ends the read with the records
// before it.
func mergeSplits(parts []splitRecords, maxBad int) ([]*Record, ReadStats, error) {
	var stats ReadStats
	var err error
	var lineBase int64
	for i := range parts {
		sr := &parts[i]
		if stats.FirstSkipped == "" && len(sr.skips) > 0 {
			stats.FirstSkipped = fmt.Sprintf("line %d: %v", lineBase+sr.firstLine, sr.firstErr)
		}
		if over := stats.SkippedLines + len(sr.skips) - maxBad; over > 0 {
			k := len(sr.skips) - over // the skip that breaks the budget
			sr.n = sr.skips[k]
			stats.SkippedLines += k + 1
			if maxBad == 0 {
				err = fmt.Errorf("proxylog: line %d: %w", lineBase+sr.firstLine, sr.firstErr)
			} else {
				err = fmt.Errorf("proxylog: more than %d malformed lines (first: %s)", maxBad, stats.FirstSkipped)
			}
		} else {
			stats.SkippedLines += len(sr.skips)
			err = sr.err
		}
		stats.Records += sr.n
		if err != nil {
			parts = parts[:i+1]
			break
		}
		lineBase += sr.lines
	}
	if stats.Records == 0 {
		return nil, stats, err
	}
	out := make([]*Record, 0, stats.Records)
	for _, sr := range parts {
		left := sr.n
		for _, slab := range sr.slabs {
			slab = slab[:min(len(slab), left)]
			for k := range slab {
				out = append(out, &slab[k])
			}
			left -= len(slab)
		}
	}
	return out, stats, err
}
