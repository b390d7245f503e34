package faultinject

import (
	"encoding/json"
	"fmt"
	"time"
)

// Env-transportable fault schedules: a test harness that runs for a
// configurable time (the daemon soak, TestDaemonSoak in internal/source)
// can replay an explicit, reproducible schedule instead of its seeded
// random one. The schedule is JSON in the EnvScheduleVar environment
// variable; the harness decodes it and installs a fresh Scheduler behind
// its fault seams, so per-point hit counts start at zero for the run.

// EnvScheduleVar is the name of the environment variable carrying an
// encoded schedule.
const EnvScheduleVar = "BAYWATCH_FAULT_SCHEDULE"

// EnvRule scripts one fault. The Kind fields compose like Scheduler
// rules: Crash wins over Err, Err over Delay; hits in [From, To] (1-based,
// inclusive) trigger the fault.
type EnvRule struct {
	// Point is the injection point's name (a registered Point, possibly
	// keyed).
	Point string `json:"point"`
	// From and To bound the per-point hit range (1-based, inclusive).
	// To == 0 means To = From.
	From int `json:"from"`
	To   int `json:"to,omitempty"`
	// Crash panics with *Crash at the hit.
	Crash bool `json:"crash,omitempty"`
	// Err injects an error with this message at the hit.
	Err string `json:"err,omitempty"`
	// DelayMS sleeps this long at the hit before returning nil.
	DelayMS int64 `json:"delayMs,omitempty"`
}

// Schedule is an env-transportable set of fault rules.
type Schedule struct {
	// Rules are the scripted faults.
	Rules []EnvRule `json:"rules"`
}

// DecodeSchedule parses a JSON schedule. An empty string decodes to an
// empty schedule.
func DecodeSchedule(val string) (Schedule, error) {
	var s Schedule
	if val == "" {
		return s, nil
	}
	if err := json.Unmarshal([]byte(val), &s); err != nil {
		return s, fmt.Errorf("faultinject: decode schedule: %w", err)
	}
	for i, r := range s.Rules {
		if r.Point == "" {
			return s, fmt.Errorf("faultinject: decode schedule: rule %d has no point", i)
		}
		if r.From <= 0 {
			return s, fmt.Errorf("faultinject: decode schedule: rule %d: from must be >= 1", i)
		}
		if r.To != 0 && r.To < r.From {
			return s, fmt.Errorf("faultinject: decode schedule: rule %d: to %d < from %d", i, r.To, r.From)
		}
	}
	return s, nil
}

// Scheduler materializes the schedule: a fresh Scheduler with every rule
// installed.
func (s Schedule) Scheduler() *Scheduler {
	sched := New(0)
	for _, r := range s.Rules {
		to := r.To
		if to == 0 {
			to = r.From
		}
		switch {
		case r.Crash:
			for h := r.From; h <= to; h++ {
				sched.CrashAt(Point(r.Point), h)
			}
		case r.Err != "":
			sched.FailTransient(Point(r.Point), r.From, to-r.From+1, fmt.Errorf("%s", r.Err))
		case r.DelayMS > 0:
			for h := r.From; h <= to; h++ {
				sched.DelayAt(Point(r.Point), h, time.Duration(r.DelayMS)*time.Millisecond)
			}
		}
	}
	return sched
}
