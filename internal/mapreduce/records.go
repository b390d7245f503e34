package mapreduce

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Every file RunExec passes between processes — a task's input partition
// and its output — is a run of gob records followed by a fixed 20-byte
// footer, so a reader can tell a complete file from one truncated or
// corrupted after it was written:
//
//	magic "BWSP" | recordCount uint32 | payloadLen uint64 | crc32 uint32
//
// (all little-endian; the CRC32-IEEE covers the gob payload only).
// writeRecords is the one writer and readRecords the one validator.
const (
	footerMagic = "BWSP"
	footerLen   = 20
)

// ErrCorrupt reports a record file that failed validation: missing or
// mangled footer, length mismatch, checksum mismatch, or a gob stream that
// does not decode to exactly the recorded record count.
var ErrCorrupt = errors.New("mapreduce: record file corrupt")

// countingWriter tracks how many bytes pass through it (the payload
// length recorded in the footer).
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeRecords writes recs to path as gob records plus the footer.
func writeRecords[T any](path string, recs []T) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("mapreduce: create records file: %w", err)
	}
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(f, crc)}
	enc := gob.NewEncoder(cw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return fmt.Errorf("mapreduce: encode record: %w", err)
		}
	}
	var footer [footerLen]byte
	copy(footer[:], footerMagic)
	binary.LittleEndian.PutUint32(footer[4:], uint32(len(recs)))
	binary.LittleEndian.PutUint64(footer[8:], uint64(cw.n))
	binary.LittleEndian.PutUint32(footer[16:], crc.Sum32())
	if _, err := f.Write(footer[:]); err != nil {
		f.Close()
		return fmt.Errorf("mapreduce: write records footer: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mapreduce: close records file: %w", err)
	}
	return nil
}

// readRecords reads a file writeRecords wrote. The footer, the record
// count, the absence of trailing data and the checksum are all validated
// before any record is returned; a file that fails validation yields
// ErrCorrupt and no records.
func readRecords[T any](path string) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: open records file: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("mapreduce: stat records file: %w", err)
	}
	if fi.Size() < footerLen {
		return nil, fmt.Errorf("%w: %s: %d bytes, shorter than footer", ErrCorrupt, path, fi.Size())
	}
	var footer [footerLen]byte
	if _, err := f.ReadAt(footer[:], fi.Size()-footerLen); err != nil {
		return nil, fmt.Errorf("mapreduce: read records footer: %w", err)
	}
	if string(footer[:4]) != footerMagic {
		return nil, fmt.Errorf("%w: %s: bad footer magic", ErrCorrupt, path)
	}
	count := binary.LittleEndian.Uint32(footer[4:])
	payloadLen := binary.LittleEndian.Uint64(footer[8:])
	wantCRC := binary.LittleEndian.Uint32(footer[16:])
	if payloadLen != uint64(fi.Size()-footerLen) {
		return nil, fmt.Errorf("%w: %s: payload length %d does not match file size %d",
			ErrCorrupt, path, payloadLen, fi.Size())
	}

	// Stream-decode the payload while checksumming every byte read.
	crc := crc32.NewIEEE()
	tee := io.TeeReader(io.LimitReader(f, int64(payloadLen)), crc)
	dec := gob.NewDecoder(tee)
	recs := make([]T, 0, count)
	for i := uint32(0); i < count; i++ {
		var rec T
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("%w: %s: decode record %d/%d: %v", ErrCorrupt, path, i, count, err)
		}
		recs = append(recs, rec)
	}
	var extra T
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: %s: trailing records beyond recorded count %d", ErrCorrupt, path, count)
	}
	if _, err := io.Copy(io.Discard, tee); err != nil {
		return nil, fmt.Errorf("mapreduce: drain records file: %w", err)
	}
	if got := crc.Sum32(); got != wantCRC {
		return nil, fmt.Errorf("%w: %s: checksum mismatch (got %08x, want %08x)", ErrCorrupt, path, got, wantCRC)
	}
	return recs, nil
}
