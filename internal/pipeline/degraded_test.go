package pipeline

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"baywatch/internal/synthetic"
)

func TestDetectPanicIsolatedAsDegraded(t *testing.T) {
	env := newTestEnv(t, nil)
	var hit atomic.Int64 // reducers detect in parallel
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			if hit.Add(1) == 1 {
				panic("injected detector blow-up")
			}
		}
		return nil
	}))

	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatalf("run should survive a per-candidate panic, got %v", err)
	}
	if !res.Degraded {
		t.Fatal("expected Degraded=true")
	}
	if len(res.Errors) != 1 {
		t.Fatalf("expected 1 candidate error, got %d: %+v", len(res.Errors), res.Errors)
	}
	ce := res.Errors[0]
	if ce.Stage != "detect" {
		t.Fatalf("stage = %q, want detect", ce.Stage)
	}
	if !strings.Contains(ce.Err, "injected detector blow-up") {
		t.Fatalf("error message lost: %q", ce.Err)
	}
	if res.Stats.Errored != 1 {
		t.Fatalf("Stats.Errored = %d, want 1", res.Stats.Errored)
	}
	// The errored candidate must appear in Candidates under StageError.
	found := 0
	for _, c := range res.Candidates {
		if c.SuppressedBy == StageError {
			found++
			if c.Source != ce.Source || c.Destination != ce.Destination {
				t.Fatalf("StageError candidate %s|%s does not match error record %s|%s",
					c.Source, c.Destination, ce.Source, ce.Destination)
			}
		}
	}
	if found != 1 {
		t.Fatalf("StageError candidates = %d, want 1", found)
	}
}

func TestDetectErrorIsolatedAsDegraded(t *testing.T) {
	env := newTestEnv(t, nil)
	injected := errors.New("injected detect failure")
	var hit atomic.Int64
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") {
			if hit.Add(1) <= 2 {
				return injected
			}
		}
		return nil
	}))

	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatalf("run should survive per-candidate errors, got %v", err)
	}
	if !res.Degraded || len(res.Errors) != 2 {
		t.Fatalf("degraded=%v errors=%d, want true/2", res.Degraded, len(res.Errors))
	}
	for _, ce := range res.Errors {
		if ce.Stage != "detect" || !strings.Contains(ce.Err, "injected detect failure") {
			t.Fatalf("unexpected error record: %+v", ce)
		}
	}
}

func TestIndicationPanicIsolated(t *testing.T) {
	env := newTestEnv(t, nil)
	var hit atomic.Int64
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineIndication)+":") {
			if hit.Add(1) == 1 {
				panic("indication exploded")
			}
		}
		return nil
	}))

	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatalf("run should survive an indication panic, got %v", err)
	}
	if !res.Degraded || len(res.Errors) != 1 {
		t.Fatalf("degraded=%v errors=%d, want true/1", res.Degraded, len(res.Errors))
	}
	if res.Errors[0].Stage != "indication" {
		t.Fatalf("stage = %q, want indication", res.Errors[0].Stage)
	}
	if !strings.Contains(res.Errors[0].Err, "indication exploded") {
		t.Fatalf("error message lost: %q", res.Errors[0].Err)
	}
}

func TestCleanRunNotDegraded(t *testing.T) {
	env := newTestEnv(t, nil)
	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || len(res.Errors) != 0 || res.Stats.Errored != 0 {
		t.Fatalf("clean run reported degraded: degraded=%v errors=%d", res.Degraded, len(res.Errors))
	}
}

// TestDegradedRunStillDetectsInfection injects failures into every benign
// pair's detection while leaving the malicious destination untouched: the
// run degrades but the infection is still reported.
func TestDegradedRunStillDetectsInfection(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	var malDomain string
	for d, tru := range env.trace.Truth {
		if tru.Label == synthetic.LabelMalicious {
			malDomain = d
		}
	}
	if malDomain == "" {
		t.Fatal("synthetic trace has no malicious domain")
	}

	var failed atomic.Int64
	t.Cleanup(faultinject.Install(func(point string) error {
		if strings.HasPrefix(point, string(faultinject.PointPipelineDetect)+":") && !strings.Contains(point, malDomain) {
			if failed.Add(1) <= 5 {
				return errors.New("injected benign-pair failure")
			}
		}
		return nil
	}))

	res, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || len(res.Errors) != 5 {
		t.Fatalf("degraded=%v errors=%d, want true/5", res.Degraded, len(res.Errors))
	}
	foundMal := false
	for _, c := range res.Reported {
		if c.Destination == malDomain {
			foundMal = true
		}
	}
	if !foundMal {
		t.Fatalf("degraded run lost the infection: reported %d cases, none for %s",
			len(res.Reported), malDomain)
	}
}
