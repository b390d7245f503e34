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
//	pairs        n × (src, dst, events, events × ts delta,
//	                  paths, paths × path, srcs, srcs × source index)
//	             only what the pair gained since the previous frame: its
//	             new events (ts deltas restarting from 0), its new URL-path
//	             sample entries and the sources new to it, each an index
//	             into this frame's sources table; a delta frame writes the
//	             pairs in the order they were first touched since the
//	             previous commit, a snapshot in the order the pairs were
//	             created
//	detections   fingerprint u64 LE,
//	             n × (src, dst, events covered, core.AppendResult bytes)
//	             in (src, dst) order; the pairs a tick detected since the
//	             previous frame
//
// so a commit costs what arrived since the last one, not what is stored.
// A pair's URL paths are not per event: the store keeps the sample its
// summary carries (the first timeseries.MaxURLPaths distinct non-empty
// paths), and a frame holds the entries the sample gained.
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
// fsync → rename → dir fsync through durable.WriteFile, with the
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
//     without events, a sample entry that is empty, already sampled or
//     past the cap, a source index outside the table or already the
//     pair's, a detection of events its pair does not hold), or a valid
//     frame of another version (version 3 stored a path per event and no
//     sources, version 2 had no detections section; a version-1 JSON
//     checkpoint reads as a bad first frame) is corruption. The file is
//     quarantined to <dir>/quarantine/, never deleted, and the engine
//     starts empty and re-ingests what the sources can still replay. A
//     file that cannot be moved aside fails OpenEngine instead: an empty
//     engine's first commit would compact over it.
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
	"slices"
	"sort"

	"baywatch/internal/core"
	"baywatch/internal/durable"
	"baywatch/internal/faultinject"
)

// checkpointVersion is the on-disk format version; a checkpoint with a
// different version is quarantined like a corrupt one.
const checkpointVersion = 4

const (
	frameMagic  = "BWCL"
	frameHdrLen = len(frameMagic) + 1 + 8
	frameCRCLen = 4
)

func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.bin") }

// The size hints presize a frame's buffer. A touched pair costs its key
// (two short strings), its counts, a first timestamp written from 0 and
// its few new sample entries and sources; each further event a varint
// delta of a second or two bytes. A detection record is about a dozen
// candidates at candidate size plus the mixture model.
const (
	touchedSizeHint   = 64
	eventSizeHint     = 2
	detectionSizeHint = 1024
)

// frameSeal is one frame as a commit's seal captured it under e.mu: the
// header, and for each pair the frame writes the part of its history and
// sample the frame holds and the detection it carries. encode reads only
// this, so it runs outside e.mu while Apply keeps appending: the captured
// slices end where the histories ended at the seal, and a history only
// ever grows past that.
type frameSeal struct {
	// full is a snapshot, written by rewrite; otherwise a delta appended
	// at byte at.
	full bool
	at   int64
	// hdr is the header the frame records, installed as the durable one
	// once the write commits; watermark and evictedCount are the values
	// it installs, detFP keys its detections.
	hdr                     durableHeader
	watermark, evictedCount int64
	detFP                   uint64
	// evict lists the pairs the frame drops, in key order; its install
	// drops them from the store. A delta names them; a snapshot simply
	// leaves them out.
	evict []*pairHistory
	// pairs holds, in the order the frame writes them, what each pair
	// gained since the previous frame (a snapshot: all of it); dets the
	// detections the frame carries.
	pairs []pairDelta
	dets  []pairDet
	// uncommit is the events the frame covers, which its install takes
	// off the engine's uncommitted count; sizeHint presizes the buffer.
	uncommit, sizeHint int64
	// bad is the detection encode could not render, if any.
	bad pairDet
	// settled is closed once the frame is installed or has failed.
	settled chan struct{}
}

// pairDelta is one pair entry of a sealed frame: the events, sample
// entries and sources it writes.
type pairDelta struct {
	h     *pairHistory
	ts    []int64
	paths []string
	srcs  []string
}

// pairDet is one detection record of a sealed frame, covering the first n
// events of h's history.
type pairDet struct {
	h   *pairHistory
	det *core.Result
	n   int
}

// encode renders the sealed frame: the positions, maxTS and late-drop
// count with the watermark and eviction total the commit will install,
// the evicted pairs, each pair entry in the order sealed and the
// detection records.
func (f *frameSeal) encode() ([]byte, error) {
	buf := make([]byte, frameHdrLen, frameHdrLen+256+int(f.sizeHint))
	names := make([]string, 0, len(f.hdr.pos))
	for name := range f.hdr.pos {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		p := f.hdr.pos[name]
		buf = appendString(buf, name)
		buf = binary.AppendVarint(buf, p.Records)
		buf = binary.AppendVarint(buf, p.Skipped)
		buf = binary.AppendVarint(buf, p.Offset)
		buf = binary.AppendUvarint(buf, p.Dev)
		buf = binary.AppendUvarint(buf, p.Inode)
	}
	buf = binary.AppendVarint(buf, f.watermark)
	buf = binary.AppendVarint(buf, f.hdr.maxTS)
	buf = binary.AppendVarint(buf, f.hdr.lateDropped)
	buf = binary.AppendVarint(buf, f.evictedCount)

	var named []*pairHistory
	if !f.full {
		named = f.evict
	}
	buf = binary.AppendUvarint(buf, uint64(len(named)))
	for _, h := range named {
		buf = appendString(buf, h.key.Src)
		buf = appendString(buf, h.key.Dst)
	}

	buf = binary.AppendUvarint(buf, uint64(len(f.pairs)))
	for _, p := range f.pairs {
		buf = appendString(buf, p.h.key.Src)
		buf = appendString(buf, p.h.key.Dst)
		buf = binary.AppendUvarint(buf, uint64(len(p.ts)))
		prev := int64(0)
		for _, ts := range p.ts {
			buf = binary.AppendVarint(buf, ts-prev)
			prev = ts
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.paths)))
		for _, path := range p.paths {
			buf = appendString(buf, path)
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.srcs)))
		for _, name := range p.srcs {
			// Every source that delivered an event has a position, so it
			// is in the table.
			i, _ := slices.BinarySearch(names, name)
			buf = binary.AppendUvarint(buf, uint64(i))
		}
	}

	buf = binary.LittleEndian.AppendUint64(buf, f.detFP)
	buf = binary.AppendUvarint(buf, uint64(len(f.dets)))
	for _, d := range f.dets {
		buf = appendString(buf, d.h.key.Src)
		buf = appendString(buf, d.h.key.Dst)
		buf = binary.AppendUvarint(buf, uint64(d.n))
		var err error
		if buf, err = core.AppendResult(buf, d.det); err != nil {
			// Only a Result no detector builds; the commit fails and
			// forgets it, so the one after goes through and the pair is
			// detected afresh.
			f.bad = d
			return nil, fmt.Errorf("source: checkpoint: detection of %s: %w", d.h.key, err)
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

// minPairEntryLen is the fewest bytes a frame's pair entry takes: two
// string lengths, an event count, one event and two more counts, each at
// least a byte.
const minPairEntryLen = 6

// replayFrame applies one frame's payload to the engine: the header
// replaces the accounting, evicted pairs leave the store, and each pair
// delta goes through pairHistory.add, addPath and addSource — the appends
// Apply performs, minus the sequence dedup and the late drop, which the
// committing engine had already decided. A sample entry the sample would
// not take (empty, already sampled, past the cap) or a source the pair
// already has or the frame's table does not hold is no commit's output, so
// it is corruption. On error the engine is left partly updated; the
// caller discards it.
func (e *Engine) replayFrame(payload []byte) error {
	r := &frameReader{buf: payload}
	pos := make(map[string]Position)
	var names []string // the sources table, which pair entries index
	for n := r.count(); n > 0 && r.err == nil; n-- {
		name := r.str()
		names = append(names, name)
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
			e.drop(h)
		}
	}

	n := r.count()
	if n > len(r.buf)/minPairEntryLen {
		r.fail("pair count exceeds frame")
	}
	if r.err == nil && len(e.pairs) == 0 && len(e.order) == 0 {
		// The first frame of a log is a snapshot: size the store for it
		// once instead of growing it a pair at a time. The check above
		// bounds the allocation by the frame's length.
		e.pairs = make(map[pairKey]*pairHistory, n)
		e.order = make([]*pairHistory, 0, n)
	}
	for ; n > 0 && r.err == nil; n-- {
		k := pairKey{Src: r.str(), Dst: r.str()}
		events := r.count()
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
			h = e.newPair(k, events)
		}
		ts := int64(0)
		for i := 0; i < events && r.err == nil; i++ {
			ts += r.varint()
			if r.err == nil {
				h.add(ts)
				e.events++
			}
		}
		for n := r.count(); n > 0 && r.err == nil; n-- {
			if p := r.str(); r.err == nil && !h.addPath(p) {
				r.fail("path sample entry the sample does not take")
			}
		}
		for n := r.count(); n > 0 && r.err == nil; n-- {
			if i := r.uvarint(); r.err == nil && (i >= uint64(len(names)) || !h.addSource(names[i])) {
				r.fail("source index outside the table or already the pair's")
			}
		}
		h.committed, h.committedPaths, h.committedSrcs = len(h.ts), len(h.paths), len(h.srcs)
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

// checkpointPoints is the registered point of each step of the
// compaction's atomic replace, keyed like the append's.
var checkpointPoints = durable.Points{
	Create:  faultinject.PointSourceCheckpointCreate.Keyed("checkpoint"),
	Write:   faultinject.PointSourceCheckpointWrite.Keyed("checkpoint"),
	Sync:    faultinject.PointSourceCheckpointSync.Keyed("checkpoint"),
	Rename:  faultinject.PointSourceCheckpointRename.Keyed("checkpoint"),
	Dirsync: faultinject.PointSourceCheckpointDirsync.Keyed("checkpoint"),
}

// writeCheckpoint replaces the log with the one frame through
// durable.WriteFile, which checks the fault point of each step.
func writeCheckpoint(dir string, frame []byte) error {
	if err := durable.WriteFile(checkpointPath(dir), frame, checkpointPoints); err != nil {
		return fmt.Errorf("source: %w", err)
	}
	return nil
}

// appendCheckpoint writes frame at byte at — the end of the valid log —
// and fsyncs. The file must already exist: its first frame came through
// writeCheckpoint. A failed write or fsync cuts the file back to at, best
// effort, so a process that dies before the next commit does not restart
// from a frame its engine counted as failed.
func appendCheckpoint(dir string, frame []byte, at int64) error {
	path := checkpointPath(dir)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("source: open %s: %w", path, err)
	}
	if err = faultinject.Check(faultinject.PointSourceCheckpointAppend, "checkpoint"); err == nil {
		_, err = f.WriteAt(frame, at)
	}
	if err != nil {
		f.Truncate(at)
		f.Close()
		return fmt.Errorf("source: append %s: %w", path, err)
	}
	if err = faultinject.Check(faultinject.PointSourceCheckpointAppendsync, "checkpoint"); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Truncate(at)
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
