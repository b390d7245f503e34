// Package durable is the one write path for state that must survive a
// crash: an atomic replace of a whole file, the directory fsync that makes
// a rename last, the quarantine that moves an unreadable file aside
// instead of deleting it, and the sweep of the temp files an interrupted
// replace leaves behind.
//
// A replace is
//
//	create path.tmp → write → fsync → close → rename over path → fsync dir
//
// and the rename is the commit point: a crash before it leaves the old
// file (plus a temp file the next RemoveTemp deletes), a crash after it
// the new one. Callers with fault points name one per step in Points, and
// faultinject.Check runs each before its step, so an injected error or
// crash lands exactly where a real one would.
// Nothing here cleans up in a defer: a simulated crash is a panic, and it
// must leave the disk the way a real crash would.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"

	"baywatch/internal/faultinject"
)

// Points names the fault point, possibly keyed, checked before each step
// of WriteFile; an empty one checks nothing.
type Points struct {
	Create, Write, Sync, Rename, Dirsync faultinject.Point
}

// WriteFile replaces path with data atomically and durably: path.tmp is
// created, written, fsynced and closed, renamed over path, and the
// directory is fsynced. Before each of the five steps it checks that
// step's point in pts and stops with the error the check returns; a zero
// pts checks nothing. On error the temp file may remain; RemoveTemp
// sweeps it.
func WriteFile(path string, data []byte, pts Points) error {
	tmp := path + ".tmp"
	if err := faultinject.Check(pts.Create, ""); err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if err = faultinject.Check(pts.Write, ""); err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err = faultinject.Check(pts.Sync, ""); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err = faultinject.Check(pts.Rename, ""); err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("rename %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	if err = faultinject.Check(pts.Dirsync, ""); err == nil {
		err = SyncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("dirsync %s: %w", dir, err)
	}
	return nil
}

// SyncDir fsyncs a directory so a completed rename survives power loss.
// Filesystems that do not support directory fsync (EINVAL/ENOTSUP) are
// tolerated; a real I/O failure is not — the rename is a commit point,
// and calling it durable while the directory entry may still be lost
// would let recovery believe in state a power cut can erase.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

// Quarantine moves path into dir/quarantine/, never deleting or
// overwriting anything: the file keeps its base name, or takes the first
// free "name.N" when that is taken. It returns where the file went. Any
// failure — the quarantine directory cannot be made, a candidate name
// cannot be checked (too long, say), the rename fails — is returned, and
// the file is left where it was.
func Quarantine(dir, path string) (string, error) {
	qdir := filepath.Join(dir, "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	base := filepath.Base(path)
	dst := filepath.Join(qdir, base)
	for i := 1; ; i++ {
		_, err := os.Lstat(dst)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return "", err
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		return "", err
	}
	return dst, nil
}

// RemoveTemp deletes the *.tmp files an interrupted WriteFile left in dir.
// A directory that cannot be read has nothing to sweep.
func RemoveTemp(dir string) {
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
