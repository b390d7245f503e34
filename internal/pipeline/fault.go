package pipeline

import (
	"sync/atomic"

	"baywatch/internal/faultinject"
)

// faultHook, when non-nil, is consulted at per-pair isolation points so
// tests can inject deterministic errors (or panics) and exercise the
// degraded-mode paths. Points are "<phase>:<pairKey>", e.g.
// "pipeline.detect:src|dst". Production runs leave it nil. It is atomic
// because a timed-out call, abandoned to drain on its own, may still be
// reading it when the next test installs its hook.
var faultHook atomic.Pointer[func(point string) error]

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
// Testing only.
func SetFaultHook(hook func(point string) error) {
	if hook == nil {
		faultHook.Store(nil)
		return
	}
	faultHook.Store(&hook)
}

func faultCheck(point faultinject.Point, key string) error {
	h := faultHook.Load()
	if h == nil {
		return nil
	}
	return (*h)(string(point.Keyed(key)))
}
