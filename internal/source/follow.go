package source

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"baywatch/internal/faultinject"
)

// FileFollower tails one proxy log file, surviving the two races every
// log tailer meets in production:
//
//   - rotation: the file is renamed away and a new one appears under the
//     same path. Detected by device/inode identity at EOF; the old file's
//     unterminated tail is delivered as a final line (the writer finished
//     it before rotating, the newline just never landed), then tailing
//     restarts at the new file's beginning.
//   - truncation (copytruncate): the file shrinks in place below the read
//     offset. Detected by size-vs-offset at EOF; the partial line is
//     discarded (its contents are gone) and tailing restarts at offset 0.
//
// Only complete lines are ever parsed — the committed Offset always
// points just past the last delivered newline, so a daemon killed
// mid-line resumes exactly at the line boundary and a mid-line read
// never yields a half-record event.
//
// On a fresh position the follower reads the file from the beginning
// (deterministic ingestion of existing content); on resume it seeks to
// resume.Offset when the file identity still matches, and starts over at
// the (new) file's beginning when it does not.
type FileFollower struct {
	// Path is the file to tail.
	Path string
	// SourceName overrides the connector name (default: base of Path).
	SourceName string
	// PollInterval is the longest idle re-check at EOF (default 200ms).
	// The follower backs off to it: after a read that returned bytes the
	// next check comes at most PollInterval/16 later, and each consecutive
	// empty check doubles the wait up to PollInterval, so an idle file
	// costs at most four checks more than a fixed PollInterval would.
	// Where the platform has a change watch (inotify on Linux), a write to
	// the file ends the wait at once, so an append is read as it lands;
	// without one the follower wakes on the schedule alone, within
	// PollInterval/16 of an append while the file keeps growing. A path
	// missing after a rotation is re-checked on the same schedule.
	PollInterval time.Duration
	// MaxLineBytes bounds one line (default 1 MiB); an overlong line is
	// discarded up to its newline and counted as skipped.
	MaxLineBytes int
	// MaxBatch bounds events per delivered batch (default 4096).
	MaxBatch int
}

// Name implements Connector.
func (f *FileFollower) Name() string {
	if f.SourceName != "" {
		return f.SourceName
	}
	return filepath.Base(f.Path)
}

// idleBackoff bounds the follower's wait between checks at EOF: it starts
// at a sixteenth of the poll interval and doubles with each consecutive
// empty check up to the interval itself; a read that returned bytes, or a
// reopen, starts it over. A change watch ends a wait before its bound.
type idleBackoff struct {
	max, next time.Duration
}

func newIdleBackoff(max time.Duration) idleBackoff {
	return idleBackoff{max: max, next: max / 16}
}

// reset starts the schedule over at its floor.
func (b *idleBackoff) reset() { b.next = b.max / 16 }

// wait returns the next idle wait and advances the schedule.
func (b *idleBackoff) wait() time.Duration {
	d := b.next
	b.next = min(2*d, b.max)
	return d
}

// followSleep is the follower's idle wait: until the watch (nil where
// none is open) sees the file change or the duration passes. Tests swap it
// to record the backoff schedule without sleeping.
var followSleep = waitChange

// Run implements Connector. It returns ctx's cause when asked to stop and
// the underlying failure otherwise; the supervisor restarts it with the
// engine's current position either way.
func (f *FileFollower) Run(ctx context.Context, resume Position, sink Sink) error {
	name := f.Name()
	poll := f.PollInterval
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	maxLine := f.MaxLineBytes
	if maxLine <= 0 {
		maxLine = maxLineBytes
	}
	maxBatch := f.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4096
	}

	t := &tailer{
		path: f.Path, name: name, sink: sink, pos: resume,
		chunk:  make([]byte, 64<<10),
		events: make([]Event, 0, maxBatch),
		lines:  new(lineParser),
		framer: lineFramer{max: maxLine},
		idle:   newIdleBackoff(poll),
	}
	for {
		if ctx.Err() != nil {
			return ctxCause(ctx)
		}
		// ---- open (or reopen after rotation/truncation) -----------------
		if err := faultinject.Check(faultinject.PointSourceFollowOpen, name); err != nil {
			return fmt.Errorf("source: open %s: %w", f.Path, err)
		}
		file, err := os.Open(f.Path)
		if err != nil {
			if os.IsNotExist(err) {
				// Rotation race: the old file is gone and the new one has
				// not appeared yet. Wait it out.
				sink.Alive()
				if err := followSleep(ctx, nil, t.idle.wait()); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("source: open %s: %w", f.Path, err)
		}
		t.idle.reset()
		fi, err := file.Stat()
		if err != nil {
			file.Close()
			return fmt.Errorf("source: stat %s: %w", f.Path, err)
		}
		dev, ino, idOK := fileID(fi)
		pos := &t.pos
		sameFile := idOK && pos.Dev == dev && pos.Inode == ino
		if !idOK {
			// No identity available: trust the offset while the file is at
			// least as large as it (the size-shrink heuristic).
			sameFile = pos.Offset > 0 && fi.Size() >= pos.Offset
		}
		t.readOff = 0
		if sameFile && pos.Offset > 0 {
			if fi.Size() < pos.Offset {
				// Truncated while we were away; the committed tail is gone.
				if err := faultinject.Check(faultinject.PointSourceFollowTruncate, name); err != nil {
					file.Close()
					return fmt.Errorf("source: truncate %s: %w", f.Path, err)
				}
				pos.Offset = 0
			} else if _, err := file.Seek(pos.Offset, io.SeekStart); err != nil {
				file.Close()
				return fmt.Errorf("source: seek %s: %w", f.Path, err)
			} else {
				t.readOff = pos.Offset
			}
		} else {
			pos.Offset = 0
		}
		pos.Dev, pos.Inode = dev, ino
		t.framer.reset()

		// ---- tail loop over the open handle -----------------------------
		// The watch is made before the first read, so no write after that
		// read goes unseen; it lives as long as the handle.
		watch := openWatch(f.Path)
		reopen, err := t.tail(ctx, file, watch)
		watch.close()
		file.Close()
		if err != nil {
			return err
		}
		if !reopen {
			return ctxCause(ctx)
		}
	}
}

// tailer is one Run's read state, kept across the reopens of a rotating
// file.
type tailer struct {
	path string
	name string
	sink Sink
	pos  Position
	// readOff is the open handle's read offset; the delivered position
	// trails it by the unterminated tail the framer holds.
	readOff int64
	chunk   []byte
	events  []Event
	lines   *lineParser
	framer  lineFramer
	idle    idleBackoff
}

// consume frames the n bytes just read into chunk and delivers them.
func (t *tailer) consume(n int) error {
	t.readOff += int64(n)
	var skipped int
	t.events, skipped = t.framer.scan(t.chunk[:n], t.events[:0], t.lines)
	return t.deliver(skipped)
}

// deliver hands the sink the events and skips of one read, if any.
func (t *tailer) deliver(skipped int) error {
	if len(t.events) == 0 && skipped == 0 {
		return nil
	}
	t.pos.Records += int64(len(t.events))
	t.pos.Skipped += int64(skipped)
	t.pos.Offset = t.readOff - int64(len(t.framer.pending))
	return t.sink.Deliver(Batch{Source: t.name, Events: t.events, Skipped: skipped, Pos: t.pos})
}

// tail reads the open handle to EOF repeatedly, delivering complete
// lines, until the context ends (reopen=false), the file is rotated or
// truncated (reopen=true), or a read/deliver fails (err != nil).
func (t *tailer) tail(ctx context.Context, file *os.File, watch *fileWatch) (reopen bool, err error) {
	path, pos := t.path, &t.pos
	for {
		if ctx.Err() != nil {
			return false, ctxCause(ctx)
		}
		if err := faultinject.Check(faultinject.PointSourceFollowRead, t.name); err != nil {
			return false, fmt.Errorf("source: read %s: %w", path, err)
		}
		n, rerr := file.Read(t.chunk)
		if n > 0 {
			// The writer is active: the next empty check comes soon, even
			// when these bytes end mid-line.
			t.idle.reset()
			if err := t.consume(n); err != nil {
				return false, err
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return false, fmt.Errorf("source: read %s: %w", path, rerr)
		}
		// EOF: decide between idle wait, rotation and truncation.
		cur, serr := os.Stat(path)
		curDev, curIno, curOK := uint64(0), uint64(0), false
		if serr == nil {
			curDev, curIno, curOK = fileID(cur)
		}
		rotated := serr != nil || (curOK && (curDev != pos.Dev || curIno != pos.Inode))
		if rotated {
			if err := faultinject.Check(faultinject.PointSourceFollowRotate, t.name); err != nil {
				return false, fmt.Errorf("source: rotate %s: %w", path, err)
			}
			// The writer may have appended between the last read and the
			// stat: read the old file to its end before leaving it.
			for {
				// A read error ends the drain as EOF does: the file is being
				// left either way.
				n, _ := file.Read(t.chunk)
				if n == 0 {
					break
				}
				if err := t.consume(n); err != nil {
					return false, err
				}
			}
			// The writer finished with this file; its unterminated tail is
			// the final line.
			var skipped int
			t.events, skipped = t.framer.flush(t.events[:0], t.lines)
			if err := t.deliver(skipped); err != nil {
				return false, err
			}
			pos.Offset, pos.Dev, pos.Inode = 0, 0, 0
			t.idle.reset() // a successor not there yet is re-checked from the floor
			return true, nil
		}
		if serr == nil && cur.Size() < t.readOff-int64(len(t.framer.pending)) {
			// Shrunk in place below the last committed line boundary:
			// copytruncate. The partial tail is unrecoverable.
			if err := faultinject.Check(faultinject.PointSourceFollowTruncate, t.name); err != nil {
				return false, fmt.Errorf("source: truncate %s: %w", path, err)
			}
			t.framer.reset()
			pos.Offset = 0
			return true, nil
		}
		t.sink.Alive()
		if err := followSleep(ctx, watch, t.idle.wait()); err != nil {
			return false, err
		}
	}
}

// waitChange returns when w sees the file change, d passes, or ctx ends,
// returning the cancellation cause in the last case; with no watch it
// waits d or ctx alone.
func waitChange(ctx context.Context, w *fileWatch, d time.Duration) error {
	if w == nil {
		return sleepCtx(ctx, d)
	}
	return w.wait(ctx, d)
}

// sleepCtx sleeps d or until ctx ends, returning the cancellation cause
// in the latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctxCause(ctx)
	}
}
