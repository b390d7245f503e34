package source

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

func TestScheduleEncodeDecodeRoundTrip(t *testing.T) {
	s := Schedule{
		Rules: []EnvRule{
			{Point: string(faultinject.PointSourceCommitDone), From: 1, Crash: true},
			{Point: string(faultinject.PointSourceCheckpointAppendsync.Keyed("checkpoint")), From: 2, To: 4, Err: "scripted"},
			{Point: string(faultinject.PointSourceFollowRead.Keyed("proxy.log")), From: 1, DelayMS: 50},
		},
	}
	enc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(string(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mutated schedule:\ngot  %+v\nwant %+v", got, s)
	}
}

func TestScheduleDecodeEmpty(t *testing.T) {
	s, err := DecodeSchedule("")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rules) != 0 {
		t.Fatalf("empty schedule decoded to %+v", s)
	}
}

func TestScheduleDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, val, want string
	}{
		{"bad json", "{not json", "decode schedule"},
		{"no point", `{"rules":[{"from":1}]}`, "has no point"},
		{"zero from", `{"rules":[{"point":"p","from":0}]}`, "from must be >= 1"},
		{"inverted range", `{"rules":[{"point":"p","from":3,"to":2}]}`, "to 2 < from 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeSchedule(tc.val); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeSchedule(%q) err = %v, want %q", tc.val, err, tc.want)
			}
		})
	}
}

func TestScheduleSchedulerErrAndCrashRules(t *testing.T) {
	s := Schedule{Rules: []EnvRule{
		{Point: "p.err", From: 2, To: 3, Err: "scripted failure"},
		{Point: "p.crash", From: 1, Crash: true},
	}}
	sched := s.Scheduler()
	hook := sched.Hook()

	if err := hook("p.err"); err != nil {
		t.Fatalf("hit 1 outside [2,3] errored: %v", err)
	}
	for hit := 2; hit <= 3; hit++ {
		if err := hook("p.err"); err == nil || !strings.Contains(err.Error(), "scripted failure") {
			t.Fatalf("hit %d: err = %v, want scripted failure", hit, err)
		}
	}
	if err := hook("p.err"); err != nil {
		t.Fatalf("hit 4 past the range errored: %v", err)
	}

	crash, err := faultinject.Run(func() error { return hook("p.crash") })
	if crash == nil {
		t.Fatalf("crash rule did not crash (err=%v)", err)
	}
}

func TestScheduleSchedulerDelayRule(t *testing.T) {
	s := Schedule{Rules: []EnvRule{
		{Point: "p.slow", From: 1, DelayMS: 30},
	}}
	hook := s.Scheduler().Hook()
	start := time.Now()
	if err := hook("p.slow"); err != nil {
		t.Fatalf("delay rule errored: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay rule slept only %v", d)
	}
}
