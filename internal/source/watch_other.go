//go:build !linux

package source

import (
	"context"
	"time"
)

// fileWatch is the change watch of platforms without inotify: there is
// none, and the follower waits on its timer alone.
type fileWatch struct{}

// openWatch returns nil: no change watch on this platform.
func openWatch(path string) *fileWatch { return nil }

func (w *fileWatch) close() {}

// wait is not reached, as openWatch makes no watch here; it waits d or
// ctx all the same.
func (w *fileWatch) wait(ctx context.Context, d time.Duration) error { return sleepCtx(ctx, d) }
