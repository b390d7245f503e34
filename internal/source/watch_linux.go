package source

import (
	"context"
	"errors"
	"os"
	"syscall"
	"time"
)

// fileWatch wakes a follower parked at EOF when its file changes: an
// inotify instance watching the one file, wrapped in an *os.File so the
// runtime poller owns the descriptor and a read on it honours deadlines.
type fileWatch struct {
	f   *os.File
	buf []byte
}

// watchMask is what ends an idle wait: a write, a metadata change (an
// unlink drops the link count), or the file moving or going away. The
// stat at EOF still decides what the change was.
const watchMask = syscall.IN_MODIFY | syscall.IN_ATTRIB | syscall.IN_MOVE_SELF | syscall.IN_DELETE_SELF

// openWatch watches path for changes; nil when no watch can be made (the
// per-user instance limit, say), and the follower then waits on its timer
// alone.
func openWatch(path string) *fileWatch {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil
	}
	if _, err := syscall.InotifyAddWatch(fd, path, watchMask); err != nil {
		syscall.Close(fd)
		return nil
	}
	// An event without a name (a watch on a file, not a directory) is the
	// 16-byte header alone; this holds a burst of them in one read.
	return &fileWatch{f: os.NewFile(uintptr(fd), "inotify:"+path), buf: make([]byte, 4096)}
}

// close releases the watch; a nil watch is a no-op.
func (w *fileWatch) close() {
	if w != nil {
		w.f.Close()
	}
}

// wait returns when the file changes, d passes, or ctx ends, returning
// the cancellation cause in the last case. An event queued since the
// previous wait (an append that landed during the read that found EOF)
// ends it at once, so no append is slept over.
func (w *fileWatch) wait(ctx context.Context, d time.Duration) error {
	deadline := time.Now().Add(d)
	if err := w.f.SetReadDeadline(deadline); err != nil {
		return sleepCtx(ctx, d)
	}
	stop := context.AfterFunc(ctx, func() { w.f.SetReadDeadline(time.Now()) })
	_, err := w.f.Read(w.buf)
	stop()
	if ctx.Err() != nil {
		return ctxCause(ctx)
	}
	if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		// The watch broke; the wait keeps its bound without it.
		return sleepCtx(ctx, time.Until(deadline))
	}
	return nil
}
