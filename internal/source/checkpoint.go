// Checkpointed daemon state. The engine's durable state — per-source
// positions, the late-event watermark, the per-pair event store, and each
// pair's standing detection — is one append-only log of delta frames:
//
//	<dir>/checkpoint.bin — frame, frame, frame, ...
//
// A frame is
//
//	"BWCL" | version u8 | payload length u64 LE | payload | CRC32 u32 LE
//
// with the IEEE CRC taken over version, length and payload. The payload
// (uvarint counts, zig-zag varint integers, length-prefixed strings) is
//
//	sources      n × (name, records, skipped, offset, dev, inode), by name
//	watermark, maxTS, lateDropped, evicted      — absolute, not deltas
//	evictions    n × (src, dst): pairs this commit dropped
//	pairs        n × (src, dst, events, hasPaths u8,
//	                  events × (ts delta [, path if hasPaths]))
//	             in (src, dst) order; only the events the pair gained
//	             since the previous frame, ts deltas restarting from 0
//	detections   fingerprint u64 LE,
//	             n × (src, dst, events covered, core.AppendResult bytes)
//	             in (src, dst) order; the pairs a tick detected since the
//	             previous frame
//
// so a commit costs what arrived since the last one, not what is stored.
// A full snapshot is the same frame taken from empty — every live pair
// from its first event with the detection that covers it, no evictions —
// and there is no other frame type.
//
// A detection is a pure function of the pair's history and of what the
// fingerprint hashes: every field of the detector configuration as the
// detector runs it, the series scale, and the result codec's revision. A
// record is therefore good for as long as its pair holds exactly the
// events it covered. Recovery keeps each pair's last record and, once the
// whole log is replayed, hands it to the first tick if the fingerprint is
// the running engine's and the counts match, so that tick detects only the
// pairs with no such record; anything else — the pair gained events or was
// evicted after the record, the configuration changed — is dropped and the
// pair detected afresh. A foreign fingerprint is not damage: the records
// are decoded, for the frame's integrity, and ignored. Superseded records
// are dead bytes until the next compaction, like evicted pairs' events.
//
// Commit appends one frame at the end of the valid log and fsyncs
// (source.checkpoint.append, .appendsync). Once the bytes appended after
// the file's first frame reach that first frame's size — and whenever
// there is no file yet, or an earlier write failed and the tail cannot be
// trusted — it compacts instead: the snapshot frame goes tmp → write →
// fsync → rename → dir fsync, the opsloop journal convention, with the
// rename as the commit point and every step a registered
// source.checkpoint.* fault point. The file therefore stays under twice
// its first frame plus one delta, and lifetime bytes written under about
// three times the final state. Evictions ride in the delta frame; the
// evicted pairs' dead bytes leave the file at the next compaction.
//
// Recovery (OpenEngine) deletes leftover *.tmp files and replays the
// frames in order. The first frame always arrived by rename and every
// later one by append, which is what separates a crash from damage:
//
//   - a bad last frame — fewer bytes than a header, an extent past the
//     end of the file, or a magic/CRC mismatch on a frame that ends
//     exactly at the end — is a torn tail, what a crash mid-append
//     leaves. The file is truncated to the last good frame and the
//     engine resumes from that commit; connectors replay the gap and the
//     sequence-deduplicating Apply makes the replay exactly-once.
//   - a bad frame with bytes after it, a bad first frame, a frame whose
//     checksum holds around a payload no commit writes (a pair entry
//     without events, a detection of events its pair does not hold), or
//     a valid frame of another version (version 2 had no detections
//     section; a version-1 JSON checkpoint reads as a bad first frame)
//     is corruption. The file is quarantined to
//     <dir>/quarantine/, never deleted, and the engine starts empty and
//     re-ingests what the sources can still replay.
//
// Both repairs are recorded in Recovery. A length field damaged into a
// smaller value makes even a last frame read as "followed by bytes", so
// that one case errs towards quarantine.
package source

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"baywatch/internal/core"
	"baywatch/internal/faultinject"
)

// checkpointVersion is the on-disk format version; a checkpoint with a
// different version is quarantined like a corrupt one.
const checkpointVersion = 3

const (
	frameMagic  = "BWCL"
	frameHdrLen = len(frameMagic) + 1 + 8
	frameCRCLen = 4
)

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.bin") }

// detectionSizeHint is about what one detection record takes in a frame:
// a dozen candidates at candidate size plus the mixture model.
const detectionSizeHint = 1024

// encodeFrame renders one sealed frame: the engine's positions, maxTS and
// late-drop count with the watermark and eviction total this commit will
// install, the keys it evicts, for each of keys the events not yet durable
// and for each of detected the pair's detection, if it still covers the
// pair's history — or, with full, every event of keys and every such
// detection among them (detected is then not consulted). keys and detected
// are sorted; pairs that skip reports are left out of both. sizeHint
// presizes the buffer. e.mu must be held.
func (e *Engine) encodeFrame(watermark, evictedCount int64, evicted, keys, detected []pairKey, skip func(*pairHistory) bool, full bool, sizeHint int64) ([]byte, error) {
	buf := make([]byte, frameHdrLen, frameHdrLen+256+int(sizeHint))
	names := make([]string, 0, len(e.pos))
	for name := range e.pos {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		p := e.pos[name]
		buf = appendString(buf, name)
		buf = binary.AppendVarint(buf, p.Records)
		buf = binary.AppendVarint(buf, p.Skipped)
		buf = binary.AppendVarint(buf, p.Offset)
		buf = binary.AppendUvarint(buf, p.Dev)
		buf = binary.AppendUvarint(buf, p.Inode)
	}
	buf = binary.AppendVarint(buf, watermark)
	buf = binary.AppendVarint(buf, e.maxTS)
	buf = binary.AppendVarint(buf, e.lateDropped)
	buf = binary.AppendVarint(buf, evictedCount)

	buf = binary.AppendUvarint(buf, uint64(len(evicted)))
	for _, k := range evicted {
		buf = appendString(buf, k.Src)
		buf = appendString(buf, k.Dst)
	}

	// carried lists the pairs whose detection this frame holds: of a full
	// frame, gathered while its pairs are written below.
	var carried []pairKey
	if !full {
		for _, k := range detected {
			if h := e.pairs[k]; h.detection() != nil && !skip(h) {
				carried = append(carried, k)
			}
		}
	}
	live := 0
	for _, k := range keys {
		if !skip(e.pairs[k]) {
			live++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(live))
	for _, k := range keys {
		h := e.pairs[k]
		if skip(h) {
			continue
		}
		start := h.committed
		if full {
			start = 0
		}
		buf = appendString(buf, k.Src)
		buf = appendString(buf, k.Dst)
		buf = binary.AppendUvarint(buf, uint64(len(h.ts)-start))
		hasPaths := false
		if h.paths != nil {
			for _, p := range h.paths[start:] {
				if p != "" {
					hasPaths = true
					break
				}
			}
		}
		if hasPaths {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		prev := int64(0)
		for i := start; i < len(h.ts); i++ {
			buf = binary.AppendVarint(buf, h.ts[i]-prev)
			prev = h.ts[i]
			if hasPaths {
				buf = appendString(buf, h.paths[i])
			}
		}
		if full && h.detection() != nil {
			carried = append(carried, k)
		}
	}

	buf = binary.LittleEndian.AppendUint64(buf, e.detFP)
	buf = binary.AppendUvarint(buf, uint64(len(carried)))
	for _, k := range carried {
		h := e.pairs[k]
		buf = appendString(buf, k.Src)
		buf = appendString(buf, k.Dst)
		buf = binary.AppendUvarint(buf, uint64(h.detN))
		var err error
		if buf, err = core.AppendResult(buf, h.det); err != nil {
			// Only a Result no detector builds; forget it so the commit
			// after this one goes through, and the pair is detected afresh.
			h.det, h.detN = nil, 0
			return nil, fmt.Errorf("source: checkpoint: detection of %s: %w", k, err)
		}
	}

	return sealFrame(buf), nil
}

// sealFrame turns frameHdrLen reserved bytes followed by a payload into a
// frame: it fills in the header and appends the checksum.
func sealFrame(buf []byte) []byte {
	copy(buf, frameMagic)
	buf[len(frameMagic)] = checkpointVersion
	binary.LittleEndian.PutUint64(buf[len(frameMagic)+1:], uint64(len(buf)-frameHdrLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(frameMagic):]))
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// errCheckpointCorrupt marks an unreadable checkpoint so recovery can
// quarantine and start fresh instead of aborting.
var errCheckpointCorrupt = errors.New("source: corrupt checkpoint")

// frameReader decodes a frame payload. The first malformed field latches
// err and every later read returns zero, so callers check err once per
// record. Counts and string lengths are checked against the bytes still
// unread before anything is allocated from them.
type frameReader struct {
	buf []byte
	err error
}

func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errCheckpointCorrupt, what)
	}
	r.buf = nil
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated integer")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("truncated integer")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// count reads an element count; each element takes at least one byte, so
// a count above the bytes left is malformed, however it came about.
func (r *frameReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.buf)) {
		r.fail("count exceeds frame")
		return 0
	}
	return int(v)
}

func (r *frameReader) str() string {
	n := r.count()
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s
}

func (r *frameReader) u64() uint64 {
	if len(r.buf) < 8 {
		r.fail("truncated fingerprint")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *frameReader) flag() byte {
	if len(r.buf) == 0 {
		r.fail("truncated flag")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// replayFrame applies one frame's payload to the engine: the header
// replaces the accounting, evicted pairs leave the store, and each pair
// delta goes through pairHistory.add — the append Apply performs, minus
// the sequence dedup and the late drop, which the committing engine had
// already decided. On error the engine is left partly updated; the caller
// discards it.
func (e *Engine) replayFrame(payload []byte) error {
	r := &frameReader{buf: payload}
	pos := make(map[string]Position)
	for n := r.count(); n > 0 && r.err == nil; n-- {
		name := r.str()
		pos[name] = Position{
			Records: r.varint(),
			Skipped: r.varint(),
			Offset:  r.varint(),
			Dev:     r.uvarint(),
			Inode:   r.uvarint(),
		}
	}
	watermark, maxTS, lateDropped, evictedCount := r.varint(), r.varint(), r.varint(), r.varint()

	for n := r.count(); n > 0 && r.err == nil; n-- {
		k := pairKey{Src: r.str(), Dst: r.str()}
		if h := e.pairs[k]; h != nil && r.err == nil {
			e.events -= int64(len(h.ts))
			delete(e.pairs, k)
		}
	}

	for n := r.count(); n > 0 && r.err == nil; n-- {
		k := pairKey{Src: r.str(), Dst: r.str()}
		events := r.count()
		hasPaths := r.flag() == 1
		if r.err == nil && events == 0 {
			// No commit writes a pair it has no event for, and an empty
			// history could never be summarized.
			r.fail("pair entry without events")
		}
		if r.err != nil {
			break
		}
		h := e.pairs[k]
		if h == nil {
			h = &pairHistory{ts: make([]int64, 0, events), srcs: make(map[string]struct{})}
			e.pairs[k] = h
		}
		ts, path := int64(0), ""
		for i := 0; i < events; i++ {
			ts += r.varint()
			if hasPaths {
				path = r.str()
			}
			if r.err != nil {
				break
			}
			h.add(ts, path)
			e.events++
		}
		h.committed = len(h.ts)
	}

	// A detection stands for its pair while the history holds exactly the
	// events it covered; OpenEngine judges that once the whole log is in.
	// Under another fingerprint the records are still decoded, for the
	// frame's integrity, and only their extent is kept.
	ours := r.u64() == e.detFP
	for n := r.count(); n > 0 && r.err == nil; n-- {
		k := pairKey{Src: r.str(), Dst: r.str()}
		covered := r.uvarint() // an event count, not a count of things in the frame
		if r.err != nil {
			break
		}
		det, used, err := core.DecodeResult(r.buf)
		if err != nil {
			r.fail(err.Error())
			break
		}
		r.buf = r.buf[used:]
		h := e.pairs[k]
		if h == nil || covered == 0 || covered > uint64(len(h.ts)) {
			r.fail("detection of events the pair does not hold")
			break
		}
		if !ours {
			det = nil
		}
		h.det, h.detN = det, int(covered)
	}
	if r.err == nil && len(r.buf) != 0 {
		r.fail("bytes after the last detection")
	}
	if r.err != nil {
		return r.err
	}
	e.pos = pos
	e.watermark, e.maxTS, e.lateDropped, e.evictedCount = watermark, maxTS, lateDropped, evictedCount
	return nil
}

// parseFrame validates the frame at the start of rest. extent is the
// frame's byte length when its length field fits inside rest, and
// len(rest) otherwise; bad names what is wrong, "" for a frame whose
// magic and checksum hold (its version is the caller's to judge).
func parseFrame(rest []byte) (payload []byte, version byte, extent int, bad string) {
	if len(rest) < frameHdrLen {
		return nil, 0, len(rest), "short header"
	}
	n := binary.LittleEndian.Uint64(rest[len(frameMagic)+1:])
	if avail := len(rest) - frameHdrLen - frameCRCLen; avail < 0 || n > uint64(avail) {
		return nil, 0, len(rest), "frame extends past the end of the file"
	}
	extent = frameHdrLen + int(n) + frameCRCLen
	body, sum := rest[len(frameMagic):extent-frameCRCLen], rest[extent-frameCRCLen:extent]
	switch {
	case string(rest[:len(frameMagic)]) != frameMagic:
		return nil, 0, extent, "bad magic"
	case crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sum):
		return nil, 0, extent, "checksum mismatch"
	}
	return rest[frameHdrLen : extent-frameCRCLen], rest[len(frameMagic)], extent, ""
}

// replayLog walks a checkpoint file's frames, handing each valid payload
// to apply. good is the byte length of the valid frames and first the
// length of the first one. good < len(data) with a nil error is a torn
// tail; an error (wrapping errCheckpointCorrupt) is corruption — see the
// package comment for the line between them.
func replayLog(data []byte, apply func(payload []byte) error) (good, first int64, err error) {
	if len(data) == 0 {
		return 0, 0, fmt.Errorf("%w: empty file", errCheckpointCorrupt)
	}
	for off := 0; off < len(data); {
		payload, version, extent, bad := parseFrame(data[off:])
		if bad != "" {
			if off == 0 || off+extent < len(data) {
				return good, first, fmt.Errorf("%w: frame at byte %d: %s", errCheckpointCorrupt, off, bad)
			}
			return good, first, nil
		}
		if version != checkpointVersion {
			return good, first, fmt.Errorf("%w: frame at byte %d: unknown version %d", errCheckpointCorrupt, off, version)
		}
		if err := apply(payload); err != nil {
			return good, first, fmt.Errorf("frame at byte %d: %w", off, err)
		}
		off += extent
		good = int64(off)
		if first == 0 {
			first = good
		}
	}
	return good, first, nil
}

// checkpointPoints is the registered point of each step of the atomic
// checkpoint write, mirroring opsloop's atomicPoints, and of the two
// steps of an append.
var checkpointPoints = struct {
	create, write, sync, rename, dirsync, appendWrite, appendSync faultinject.Point
}{
	create:      faultinject.PointSourceCheckpointCreate,
	write:       faultinject.PointSourceCheckpointWrite,
	sync:        faultinject.PointSourceCheckpointSync,
	rename:      faultinject.PointSourceCheckpointRename,
	dirsync:     faultinject.PointSourceCheckpointDirsync,
	appendWrite: faultinject.PointSourceCheckpointAppend,
	appendSync:  faultinject.PointSourceCheckpointAppendsync,
}

// writeCheckpoint replaces the log with the one frame atomically: tmp
// file, fsync, rename, directory fsync, consulting the fault hook at each
// step.
func writeCheckpoint(dir string, frame []byte) error {
	path := checkpointPath(dir)
	tmp := path + ".tmp"
	if err := faultCheck(checkpointPoints.create, "checkpoint"); err != nil {
		return fmt.Errorf("source: create %s: %w", tmp, err)
	}
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("source: create %s: %w", tmp, err)
	}
	if err = faultCheck(checkpointPoints.write, "checkpoint"); err == nil {
		_, err = f.Write(frame)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("source: write %s: %w", tmp, err)
	}
	if err = faultCheck(checkpointPoints.sync, "checkpoint"); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("source: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("source: close %s: %w", tmp, err)
	}
	if err = faultCheck(checkpointPoints.rename, "checkpoint"); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("source: rename %s: %w", path, err)
	}
	if err = faultCheck(checkpointPoints.dirsync, "checkpoint"); err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("source: dirsync %s: %w", dir, err)
	}
	return nil
}

// appendCheckpoint writes frame at byte at — the end of the valid log —
// and fsyncs. The file must already exist: its first frame came through
// writeCheckpoint.
func appendCheckpoint(dir string, frame []byte, at int64) error {
	path := checkpointPath(dir)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("source: open %s: %w", path, err)
	}
	if err = faultCheck(checkpointPoints.appendWrite, "checkpoint"); err == nil {
		_, err = f.WriteAt(frame, at)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("source: append %s: %w", path, err)
	}
	if err = faultCheck(checkpointPoints.appendSync, "checkpoint"); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("source: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("source: close %s: %w", path, err)
	}
	return nil
}

// truncateCheckpoint cuts a torn tail off the log and fsyncs the result.
func truncateCheckpoint(dir string, size int64) error {
	f, err := os.OpenFile(checkpointPath(dir), os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a completed rename survives power loss;
// filesystems without directory fsync (EINVAL/ENOTSUP) are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// quarantine moves path under dir/quarantine/ (never deleting data),
// returning the destination or an empty string when the move failed.
func quarantine(dir, path string) string {
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return ""
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := os.Rename(path, dst); err != nil {
		return ""
	}
	return dst
}

// removeTempFiles deletes leftover *.tmp files from interrupted writes.
func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
