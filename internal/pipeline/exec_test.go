package pipeline

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/mapreduce"
	"baywatch/internal/mrx"
	"baywatch/internal/synthetic"
)

// TestMain lets the test binary serve as an mrx worker process when a
// distributed-detect test re-execs it. The pipeline.detect job registers
// itself from this package's init, so no explicit registration is needed.
func TestMain(m *testing.M) {
	mrx.MaybeWorker()
	os.Exit(m.Run())
}

// TestRunExecDetectMatchesInProcess pins the pipeline-level differential:
// a run with the detect stage distributed across 3 worker processes
// reports exactly what the in-process run reports.
func TestRunExecDetectMatchesInProcess(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	want, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg := env.cfg
	cfg.Exec = mapreduce.ExecConfig{
		Workers:         3,
		ScratchDir:      t.TempDir(),
		DisableFallback: true,
		HeartbeatEvery:  50 * time.Millisecond,
	}
	got, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	normalizeResult(got)
	normalizeResult(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed detect diverged from in-process:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRunExecDetectSurvivesWorkerKill injects a mid-task worker death
// (worker 0 dies after writing its first task's output, before acking it)
// and asserts the pipeline still converges to the in-process result.
func TestRunExecDetectSurvivesWorkerKill(t *testing.T) {
	env := newTestEnv(t, []synthetic.Infection{zbotInfection(3)})
	want, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}

	sched, err := faultinject.Schedule{
		Worker: 0,
		Rules: []faultinject.EnvRule{
			{Point: string(faultinject.PointMrxWorkerAck), From: 1, Crash: true},
		},
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cfg := env.cfg
	cfg.Exec = mapreduce.ExecConfig{
		Workers:         3,
		ScratchDir:      t.TempDir(),
		DisableFallback: true,
		HeartbeatEvery:  50 * time.Millisecond,
		Env:             []string{faultinject.EnvScheduleVar + "=" + sched},
	}
	got, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatalf("pipeline did not survive the worker kill: %v", err)
	}
	normalizeResult(got)
	normalizeResult(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-worker-kill result diverged from in-process:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestRunExecDetectFallsBack: when no worker can spawn and fallback is
// allowed, the run degrades to the in-process path with the same result.
func TestRunExecDetectFallsBack(t *testing.T) {
	env := newTestEnv(t, nil)
	want, err := Run(context.Background(), env.trace.Records, env.corr, env.cfg)
	if err != nil {
		t.Fatal(err)
	}

	s := faultinject.New(0)
	s.FailTransient(faultinject.PointMrxSpawn, 1, 99, os.ErrPermission)
	mrx.SetFaultHook(s.Hook())
	defer mrx.SetFaultHook(nil)

	cfg := env.cfg
	cfg.Exec = mapreduce.ExecConfig{Workers: 2, HeartbeatEvery: 50 * time.Millisecond}
	got, err := Run(context.Background(), env.trace.Records, env.corr, cfg)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	normalizeResult(got)
	normalizeResult(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fallback result diverged from in-process")
	}
}
