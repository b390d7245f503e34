package mapreduce

import "baywatch/internal/faultinject"

// faultHook, when non-nil, is consulted at internal failure points (map
// and reduce calls, spill writes and replays) so tests can inject
// deterministic failures.
// Production runs leave it nil.
var faultHook func(point string) error

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
// Not safe to call while a job is running.
func SetFaultHook(hook func(point string) error) { faultHook = hook }

func faultCheck(point faultinject.Point) error {
	if faultHook == nil {
		return nil
	}
	return faultHook(string(point))
}
