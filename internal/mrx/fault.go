package mrx

import "baywatch/internal/faultinject"

// faultHook is the package's fault-injection seam: when non-nil it is
// consulted at coordinator-side failure points (worker spawn, task
// assignment, completion, journal writes). Worker processes receive their
// schedules through the faultinject env transport instead (see
// worker.go). Installed only by tests.
var faultHook func(point string) error

// SetFaultHook installs (or, with nil, clears) the fault-injection hook.
// Testing only; not safe to call while a coordinator is running.
func SetFaultHook(h func(point string) error) { faultHook = h }

func faultCheck(point faultinject.Point) error {
	if faultHook == nil {
		return nil
	}
	return faultHook(string(point))
}
