//go:build !unix

package source

import "os"

// fileID reports no identity on platforms without syscall.Stat_t; the
// follower's rotation detection degrades to the size-shrink heuristic.
func fileID(fi os.FileInfo) (dev, ino uint64, ok bool) { return 0, 0, false }
