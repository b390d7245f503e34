package faultinject

import (
	"encoding/json"
	"fmt"
	"time"
)

// Env-transportable fault schedules: the multi-process MapReduce executor
// (internal/mrx) runs a job's tasks in exec'd child OS processes, so a
// test that wants to kill a worker mid-task cannot install a Scheduler
// hook directly — the hook lives in the parent's address space.
// Instead the test encodes a schedule as JSON, the coordinator forwards it
// to every worker through the EnvSchedule environment variable, and the
// worker-mode entrypoint decodes it and installs a fresh Scheduler behind
// its fault seams. Per-point hit counts are therefore per-process: each
// worker counts its own traversals, which is exactly the "this process
// dies before acking its first task" semantics worker-death tests need.
//
// A schedule may target a single worker by index (the coordinator numbers
// workers 0,1,2,... and never reuses an index, including across respawns),
// so "kill worker 0 at point X" leaves the surviving workers — and any
// respawned replacement — fault-free, letting convergence tests assert
// that the job completes identically after the death.

// EnvSchedule is the name of the environment variable carrying an encoded
// schedule to exec'd worker processes.
const EnvScheduleVar = "BAYWATCH_FAULT_SCHEDULE"

// EnvRule scripts one fault for transport to a child process. The zero
// Kind fields compose like Scheduler rules: Crash wins over Err, Err over
// Delay; hits in [From, To] (1-based, inclusive) trigger the fault.
type EnvRule struct {
	// Point is the injection point's name (a registered Point, possibly
	// keyed).
	Point string `json:"point"`
	// From and To bound the per-point hit range (1-based, inclusive).
	// To == 0 means To = From.
	From int `json:"from"`
	To   int `json:"to,omitempty"`
	// Crash panics with *Crash at the hit, killing the worker process.
	Crash bool `json:"crash,omitempty"`
	// Err injects an error with this message at the hit.
	Err string `json:"err,omitempty"`
	// DelayMS sleeps this long at the hit before returning nil.
	DelayMS int64 `json:"delayMs,omitempty"`
}

// Schedule is an env-transportable set of fault rules, optionally
// targeted at one worker process.
type Schedule struct {
	// Worker targets the schedule at the worker with this index; -1 (or
	// omitted via AllWorkers) applies it to every worker.
	Worker int `json:"worker"`
	// Rules are the scripted faults.
	Rules []EnvRule `json:"rules"`
}

// AllWorkers is the Schedule.Worker value that applies the schedule to
// every worker process.
const AllWorkers = -1

// Encode serializes the schedule for the EnvScheduleVar environment
// variable.
func (s Schedule) Encode() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("faultinject: encode schedule: %w", err)
	}
	return string(data), nil
}

// DecodeSchedule parses a schedule produced by Encode. An empty string
// decodes to an empty schedule targeting no rules.
func DecodeSchedule(val string) (Schedule, error) {
	s := Schedule{Worker: AllWorkers}
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

// Scheduler materializes the schedule for the worker with the given
// index: nil when the schedule targets a different worker or scripts
// nothing, otherwise a fresh Scheduler with every rule installed.
func (s Schedule) Scheduler(workerIndex int) *Scheduler {
	if len(s.Rules) == 0 || (s.Worker != AllWorkers && s.Worker != workerIndex) {
		return nil
	}
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
