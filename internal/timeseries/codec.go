package timeseries

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// The compact binary codec below is how the ops loop persists
// ActivitySummary values in its per-day files: varint-delta encoded
// intervals are typically 1–2 bytes each, an order of magnitude smaller
// than the JSON form. Layout (all integers varint/uvarint):
//
//	uvarint  len(Source)    | Source bytes
//	uvarint  len(Dest)      | Destination bytes
//	varint   Scale
//	varint   First
//	uvarint  len(Intervals) | varint intervals...
//	uvarint  len(URLPaths)  | (uvarint len | bytes)...

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("timeseries: corrupt encoding")

// ErrNoChecksum is returned by VerifyChecksum when the data carries no
// integrity footer (e.g. a file written before footers existed).
var ErrNoChecksum = errors.New("timeseries: missing checksum footer")

// checksumMagic terminates checksummed payloads; the 4 bytes before it
// hold the CRC32 (IEEE, little-endian) of everything preceding the
// footer.
const checksumMagic = "BWck"

// checksumFooterLen is the byte length of the integrity footer.
const checksumFooterLen = 8

// AppendChecksum appends the codec's 8-byte integrity footer (CRC32 of
// data, then a magic tag) so persisted files can detect truncation and
// bit rot. Verify with VerifyChecksum before decoding.
func AppendChecksum(data []byte) []byte {
	var ftr [checksumFooterLen]byte
	binary.LittleEndian.PutUint32(ftr[:4], crc32.ChecksumIEEE(data))
	copy(ftr[4:], checksumMagic)
	return append(data, ftr[:]...)
}

// VerifyChecksum validates and strips the integrity footer appended by
// AppendChecksum, returning the payload. Data without a footer yields
// ErrNoChecksum (so callers can fall back to legacy parsing); a checksum
// mismatch yields an error wrapping ErrCorrupt.
func VerifyChecksum(data []byte) ([]byte, error) {
	if len(data) < checksumFooterLen || string(data[len(data)-4:]) != checksumMagic {
		return nil, ErrNoChecksum
	}
	payload := data[:len(data)-checksumFooterLen]
	want := binary.LittleEndian.Uint32(data[len(data)-checksumFooterLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (have %08x, footer says %08x)", ErrCorrupt, got, want)
	}
	return payload, nil
}

// Marshal encodes the summary into the compact binary form.
func (a *ActivitySummary) Marshal() []byte {
	size := 2*binary.MaxVarintLen64 + len(a.Source) + len(a.Destination) +
		(len(a.Intervals)+4)*binary.MaxVarintLen64
	for _, p := range a.URLPaths {
		size += len(p) + binary.MaxVarintLen64
	}
	buf := make([]byte, 0, size)
	buf = appendString(buf, a.Source)
	buf = appendString(buf, a.Destination)
	buf = binary.AppendVarint(buf, a.Scale)
	buf = binary.AppendVarint(buf, a.First)
	buf = binary.AppendUvarint(buf, uint64(len(a.Intervals)))
	for _, iv := range a.Intervals {
		buf = binary.AppendVarint(buf, iv)
	}
	buf = binary.AppendUvarint(buf, uint64(len(a.URLPaths)))
	for _, p := range a.URLPaths {
		buf = appendString(buf, p)
	}
	return buf
}

// UnmarshalActivitySummary decodes a summary previously produced by
// Marshal.
func UnmarshalActivitySummary(data []byte) (*ActivitySummary, error) {
	d := decoder{buf: data}
	var a ActivitySummary
	var err error
	if a.Source, err = d.str(); err != nil {
		return nil, fmt.Errorf("source: %w", err)
	}
	if a.Destination, err = d.str(); err != nil {
		return nil, fmt.Errorf("destination: %w", err)
	}
	if a.Scale, err = d.varint(); err != nil {
		return nil, fmt.Errorf("scale: %w", err)
	}
	if a.First, err = d.varint(); err != nil {
		return nil, fmt.Errorf("first: %w", err)
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("interval count: %w", err)
	}
	if n > uint64(len(data)) {
		return nil, fmt.Errorf("%w: interval count %d exceeds buffer", ErrCorrupt, n)
	}
	a.Intervals = make([]int64, n)
	for i := range a.Intervals {
		if a.Intervals[i], err = d.varint(); err != nil {
			return nil, fmt.Errorf("interval %d: %w", i, err)
		}
	}
	m, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("url count: %w", err)
	}
	if m > uint64(len(data)) {
		return nil, fmt.Errorf("%w: url count %d exceeds buffer", ErrCorrupt, m)
	}
	if m > 0 {
		a.URLPaths = make([]string, m)
		for i := range a.URLPaths {
			if a.URLPaths[i], err = d.str(); err != nil {
				return nil, fmt.Errorf("url %d: %w", i, err)
			}
		}
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf))
	}
	return &a, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type decoder struct {
	buf []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)) {
		return "", ErrCorrupt
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
}
