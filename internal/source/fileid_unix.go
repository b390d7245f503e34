//go:build unix

package source

import (
	"os"
	"syscall"
)

// fileID extracts the (device, inode) identity of a file.
func fileID(fi os.FileInfo) (dev, ino uint64, ok bool) {
	st, sok := fi.Sys().(*syscall.Stat_t)
	if !sok {
		return 0, 0, false
	}
	return uint64(st.Dev), uint64(st.Ino), true
}
