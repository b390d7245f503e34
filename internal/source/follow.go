package source

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
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
	// PollInterval is the idle re-check cadence at EOF (default 200ms).
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

// fileID extracts the (device, inode) identity of a file; ok is false on
// platforms without syscall.Stat_t, where rotation detection degrades to
// the size-shrink heuristic.
func fileID(fi os.FileInfo) (dev, ino uint64, ok bool) {
	st, sok := fi.Sys().(*syscall.Stat_t)
	if !sok {
		return 0, 0, false
	}
	return uint64(st.Dev), uint64(st.Ino), true
}

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
		maxLine = 1 << 20
	}
	maxBatch := f.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4096
	}

	pos := resume
	chunk := make([]byte, 64<<10)
	var pending []byte
	lines := new(lineParser)
	discarding := false // inside an overlong line, dropping until its newline

	for {
		if ctx.Err() != nil {
			return ctxCause(ctx)
		}
		// ---- open (or reopen after rotation/truncation) -----------------
		if err := faultCheck(faultinject.PointSourceFollowOpen, name); err != nil {
			return fmt.Errorf("source: open %s: %w", f.Path, err)
		}
		file, err := os.Open(f.Path)
		if err != nil {
			if os.IsNotExist(err) {
				// Rotation race: the old file is gone and the new one has
				// not appeared yet. Wait it out.
				sink.Alive()
				if err := sleepCtx(ctx, poll); err != nil {
					return err
				}
				continue
			}
			return fmt.Errorf("source: open %s: %w", f.Path, err)
		}
		fi, err := file.Stat()
		if err != nil {
			file.Close()
			return fmt.Errorf("source: stat %s: %w", f.Path, err)
		}
		dev, ino, idOK := fileID(fi)
		sameFile := idOK && pos.Dev == dev && pos.Inode == ino
		if !idOK {
			// No identity available: trust the offset while the file is at
			// least as large as it (the size-shrink heuristic).
			sameFile = pos.Offset > 0 && fi.Size() >= pos.Offset
		}
		var readOff int64
		if sameFile && pos.Offset > 0 {
			if fi.Size() < pos.Offset {
				// Truncated while we were away; the committed tail is gone.
				if err := faultCheck(faultinject.PointSourceFollowTruncate, name); err != nil {
					file.Close()
					return fmt.Errorf("source: truncate %s: %w", f.Path, err)
				}
				pos.Offset = 0
			} else if _, err := file.Seek(pos.Offset, io.SeekStart); err != nil {
				file.Close()
				return fmt.Errorf("source: seek %s: %w", f.Path, err)
			} else {
				readOff = pos.Offset
			}
		} else {
			pos.Offset = 0
		}
		pos.Dev, pos.Inode = dev, ino
		pending = pending[:0]
		discarding = false

		// ---- tail loop over the open handle -----------------------------
		reopen, err := f.tail(ctx, file, name, sink, &pos, &readOff, &pending, &discarding, chunk, lines, poll, maxLine, maxBatch)
		file.Close()
		if err != nil {
			return err
		}
		if !reopen {
			return ctxCause(ctx)
		}
	}
}

// tail reads the open handle to EOF repeatedly, delivering complete
// lines, until the context ends (reopen=false), the file is rotated or
// truncated (reopen=true), or a read/deliver fails (err != nil).
func (f *FileFollower) tail(ctx context.Context, file *os.File, name string, sink Sink,
	pos *Position, readOff *int64, pending *[]byte, discarding *bool,
	chunk []byte, lines *lineParser, poll time.Duration, maxLine, maxBatch int) (reopen bool, err error) {
	events := make([]Event, 0, maxBatch)
	for {
		if ctx.Err() != nil {
			return false, ctxCause(ctx)
		}
		if err := faultCheck(faultinject.PointSourceFollowRead, name); err != nil {
			return false, fmt.Errorf("source: read %s: %w", f.Path, err)
		}
		n, rerr := file.Read(chunk)
		if n > 0 {
			*readOff += int64(n)
			events = events[:0]
			skipped := f.scanLines(chunk[:n], &events, pending, discarding, lines, maxLine)
			if len(events) > 0 || skipped > 0 {
				pos.Records += int64(len(events))
				pos.Skipped += int64(skipped)
				pos.Offset = *readOff - int64(len(*pending))
				if err := sink.Deliver(Batch{Source: name, Events: events, Skipped: skipped, Pos: *pos}); err != nil {
					return false, err
				}
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return false, fmt.Errorf("source: read %s: %w", f.Path, rerr)
		}
		// EOF: decide between idle wait, rotation and truncation.
		cur, serr := os.Stat(f.Path)
		curDev, curIno, curOK := uint64(0), uint64(0), false
		if serr == nil {
			curDev, curIno, curOK = fileID(cur)
		}
		rotated := serr != nil || (curOK && (curDev != pos.Dev || curIno != pos.Inode))
		if rotated {
			if err := faultCheck(faultinject.PointSourceFollowRotate, name); err != nil {
				return false, fmt.Errorf("source: rotate %s: %w", f.Path, err)
			}
			// The writer finished with this file; its unterminated tail is
			// the final line.
			if len(*pending) > 0 && !*discarding {
				events = events[:0]
				var skipped int
				events, skipped = lines.appendLineEvents(events, *pending)
				pos.Records += int64(len(events))
				pos.Skipped += int64(skipped)
				pos.Offset = *readOff
				if err := sink.Deliver(Batch{Source: name, Events: events, Skipped: skipped, Pos: *pos}); err != nil {
					return false, err
				}
			}
			*pending = (*pending)[:0]
			*discarding = false
			pos.Offset, pos.Dev, pos.Inode = 0, 0, 0
			return true, nil
		}
		if serr == nil && cur.Size() < *readOff-int64(len(*pending)) {
			// Shrunk in place below the last committed line boundary:
			// copytruncate. The partial tail is unrecoverable.
			if err := faultCheck(faultinject.PointSourceFollowTruncate, name); err != nil {
				return false, fmt.Errorf("source: truncate %s: %w", f.Path, err)
			}
			*pending = (*pending)[:0]
			*discarding = false
			pos.Offset = 0
			return true, nil
		}
		sink.Alive()
		if err := sleepCtx(ctx, poll); err != nil {
			return false, err
		}
	}
}

// scanLines splits data into complete lines (carrying the partial tail in
// pending across calls), parses each into events, and returns the number
// of lines skipped (malformed or overlong).
func (f *FileFollower) scanLines(data []byte, events *[]Event, pending *[]byte, discarding *bool, lines *lineParser, maxLine int) int {
	skipped := 0
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			if *discarding {
				return skipped
			}
			*pending = append(*pending, data...)
			if len(*pending) > maxLine {
				// Overlong line: drop what we have and skip to its newline.
				*pending = (*pending)[:0]
				*discarding = true
				skipped++
			}
			return skipped
		}
		line := data[:nl]
		data = data[nl+1:]
		if *discarding {
			// The tail of the overlong line, already counted.
			*discarding = false
			continue
		}
		if len(*pending) > 0 {
			line = append(*pending, line...)
		}
		var skip int
		*events, skip = lines.appendLineEvents(*events, line)
		skipped += skip
		*pending = (*pending)[:0]
	}
	return skipped
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
