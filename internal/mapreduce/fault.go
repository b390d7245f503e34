package mapreduce

import (
	"sync/atomic"

	"baywatch/internal/faultinject"
)

// faultHook, when non-nil, is consulted before every call of a job's
// function, at the task point keyed by the input's key, so tests can
// inject deterministic failures. Production runs leave it nil. It is
// atomic because a timed-out call, abandoned to drain on its own, may
// still be reading it when the next test installs its hook.
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

// faultCheck traverses the task point for one input; the key is rendered
// only when a hook is installed.
func faultCheck[I any](key func(I) string, in I) error {
	h := faultHook.Load()
	if h == nil {
		return nil
	}
	return (*h)(string(faultinject.PointMapreduceTask.Keyed(key(in))))
}
