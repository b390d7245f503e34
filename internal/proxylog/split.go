package proxylog

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
)

// Split is one scan unit of the sharded streaming ingest: a byte range of
// a log file. Offset/Length follow the Hadoop input-split convention — a
// split owns every line whose first byte lies inside (or, for the split
// starting a boundary, exactly at the end of) its range — so contiguous
// splits of one file partition its lines exactly, with no duplication and
// no loss, regardless of where the byte boundaries fall inside lines.
type Split struct {
	// Path is the log file.
	Path string
	// Offset is the range's first byte.
	Offset int64
	// Length is the range's byte count; < 0 means "to end of file" (the
	// whole-file split).
	Length int64
}

// String renders the split for error messages and fault-point keys.
func (s Split) String() string {
	if s.Length < 0 {
		return s.Path
	}
	return fmt.Sprintf("%s[%d:%d]", s.Path, s.Offset, s.Offset+s.Length)
}

// Splittable reports whether a file supports byte-range splits.
// Gzip-compressed files do not: the stream must be decoded from the
// start, so they always scan as one whole-file split.
func Splittable(path string) bool { return !strings.HasSuffix(path, ".gz") }

// SplitFile divides the file at path into up to n byte-range splits of
// roughly equal size. Unsplittable (gzip) or small files come back as a
// single whole-file split.
func SplitFile(path string, n int) ([]Split, error) {
	if n <= 1 || !Splittable(path) {
		return []Split{{Path: path, Offset: 0, Length: -1}}, nil
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("proxylog: split: %w", err)
	}
	size := fi.Size()
	if int64(n) > size {
		n = int(size)
	}
	if n <= 1 {
		return []Split{{Path: path, Offset: 0, Length: -1}}, nil
	}
	chunk := size / int64(n)
	splits := make([]Split, 0, n)
	for i := 0; i < n; i++ {
		off := int64(i) * chunk
		length := chunk
		if i == n-1 {
			length = size - off
		}
		splits = append(splits, Split{Path: path, Offset: off, Length: length})
	}
	return splits, nil
}

// maxLineBytes bounds one line: its content (before the newline) must be
// shorter, the cap a 1 MiB bufio.Scanner token buffer puts on a line and
// its newline. A longer line is an I/O-level failure, not a skippable
// dirty line.
const maxLineBytes = 1 << 20

// errLineTooLong reports a line over the maxLineBytes bound.
var errLineTooLong = fmt.Errorf("line longer than %d bytes", maxLineBytes-1)

// readerPool recycles split-scan read-ahead buffers across shards: a
// sharded ingest opens many short-lived scans, and a fresh 64 KiB buffer
// per scan would dominate its allocation profile.
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 1<<16) }}

// ForEachSplit streams the records owned by the split to fn, parsing each
// line zero-copy into a reused RecordView. The view (and every field of
// it) is only valid for the duration of the callback. maxBad == 0 is
// strict mode — the first malformed line aborts; maxBad > 0 skips up to
// maxBad malformed lines with the same accounting as ReadAllLenient.
// Line numbers in errors and stats are split-relative.
func ForEachSplit(sp Split, maxBad int, fn func(*RecordView) error) (ReadStats, error) {
	var stats ReadStats
	var view RecordView
	_, err := scanSplitLines(sp, func(line []byte, lineNo int64) error {
		if perr := ParseRecordView(line, &view); perr != nil {
			if maxBad == 0 {
				return fmt.Errorf("proxylog: %s line %d: %w", sp, lineNo, badRecordDetail(line, perr))
			}
			stats.SkippedLines++
			if stats.FirstSkipped == "" {
				stats.FirstSkipped = fmt.Sprintf("line %d: %v", lineNo, badRecordDetail(line, perr))
			}
			if stats.SkippedLines > maxBad {
				return fmt.Errorf("proxylog: %s: more than %d malformed lines (first: %s)", sp, maxBad, stats.FirstSkipped)
			}
			return nil
		}
		stats.Records++
		return fn(&view)
	})
	return stats, err
}

// badRecordDetail re-parses a line the view parser rejected with
// ParseRecord, whose error names the offending field ("epoch: ...",
// "status: ..."). Only the error path — a strict abort or the first
// skipped line — pays for it; the view parser's bare sentinel keeps the
// scan allocation-free.
func badRecordDetail(line []byte, bare error) error {
	if _, err := ParseRecord(string(line)); err != nil {
		return err
	}
	return bare // unreachable while the two parsers agree (FuzzParseRecordView)
}

// scanSplitLines delivers the raw lines owned by sp (newline and trailing
// CR stripped, empty lines skipped) with split-relative 1-based line
// numbers, and returns how many lines it consumed, empty ones included.
// Lines alias the read buffer and are only valid during the callback.
// The line treatment is bufio.Scanner's with ScanLines: a read error
// still delivers the partial line before it. The boundary protocol: a
// split with Offset > 0 discards everything through the first newline at
// or after Offset (that content belongs to the previous split), and every
// bounded split reads past its end until it has consumed the line
// starting at Offset+Length — so the next split's discarded prefix is
// exactly this split's overrun.
func scanSplitLines(sp Split, fn func(line []byte, lineNo int64) error) (int64, error) {
	f, err := os.Open(sp.Path)
	if err != nil {
		return 0, fmt.Errorf("proxylog: open: %w", err)
	}
	defer f.Close()

	var src io.Reader = f
	if !Splittable(sp.Path) {
		if sp.Offset != 0 || sp.Length >= 0 {
			return 0, fmt.Errorf("proxylog: %s: gzip files only support the whole-file split", sp.Path)
		}
		gz, err := gzip.NewReader(f)
		if err != nil {
			return 0, fmt.Errorf("proxylog: gzip open: %w", err)
		}
		defer gz.Close()
		src = gz
	} else if sp.Offset > 0 {
		if _, err := f.Seek(sp.Offset, io.SeekStart); err != nil {
			return 0, fmt.Errorf("proxylog: seek: %w", err)
		}
	}

	// 64 KiB of pooled read-ahead; lines longer than the reader buffer
	// take readLine's accumulation slow path, so the 1 MiB line bound does
	// not require a 1 MiB buffer (which would dominate small-shard scans).
	br := readerPool.Get().(*bufio.Reader)
	defer readerPool.Put(br)
	br.Reset(src)
	pos := sp.Offset
	// stopAt is the last line-start position this split still owns.
	stopAt := int64(-1)
	if sp.Length >= 0 {
		stopAt = sp.Offset + sp.Length
	}

	if sp.Offset > 0 {
		// The partial (or boundary) first line belongs to the previous
		// split, which read past its end to finish it.
		n, err := discardLine(br)
		pos += n
		if err == io.EOF {
			return 0, nil
		}
		if err != nil {
			return 0, fmt.Errorf("proxylog: scan: %w", err)
		}
	}

	// lineBuf accumulates a line that straddles internal read-buffer
	// boundaries; in the common case the line is delivered directly from
	// the reader's buffer with no copy.
	var lineBuf []byte
	var lineNo int64
	for {
		if stopAt >= 0 && pos > stopAt {
			return lineNo, nil
		}
		line, n, err := readLine(br, &lineBuf)
		if n == 0 || err == errLineTooLong {
			if err == io.EOF {
				return lineNo, nil
			}
			return lineNo, fmt.Errorf("proxylog: scan: %w", err)
		}
		pos += n
		lineNo++
		// Strip the newline and any trailing CR, as bufio.ScanLines does.
		if len(line) > 0 && line[len(line)-1] == '\n' {
			line = line[:len(line)-1]
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if len(line) > 0 {
			if cbErr := fn(line, lineNo); cbErr != nil {
				return lineNo, cbErr
			}
		}
		if err != nil && err != io.EOF {
			return lineNo, fmt.Errorf("proxylog: scan: %w", err)
		}
	}
}

// readLine returns the next line including its newline (when present),
// and the number of raw bytes consumed. The returned slice aliases the
// reader's internal buffer when the line fits in one read, and *buf
// otherwise. A line whose content reaches maxLineBytes is
// errLineTooLong, with no line.
func readLine(br *bufio.Reader, buf *[]byte) ([]byte, int64, error) {
	chunk, err := br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return chunk, int64(len(chunk)), err
	}
	// Slow path: the line straddles the reader's buffer; accumulate.
	*buf = append((*buf)[:0], chunk...)
	total := int64(len(chunk))
	for err == bufio.ErrBufferFull {
		if len(*buf) >= maxLineBytes {
			return nil, total, errLineTooLong
		}
		chunk, err = br.ReadSlice('\n')
		*buf = append(*buf, chunk...)
		total += int64(len(chunk))
	}
	content := len(*buf)
	if content > 0 && (*buf)[content-1] == '\n' {
		content--
	}
	if content >= maxLineBytes {
		return nil, total, errLineTooLong
	}
	return *buf, total, err
}

// discardLine consumes through the next newline, returning the byte
// count consumed.
func discardLine(br *bufio.Reader) (int64, error) {
	var total int64
	for {
		chunk, err := br.ReadSlice('\n')
		total += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			continue
		}
		return total, err
	}
}
