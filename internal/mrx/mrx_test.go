package mrx

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// TestMain re-execs the test binary as a worker process when the
// coordinator (a test in this same binary) spawns one: job registration
// must happen before MaybeWorker so workers can resolve the stub job.
func TestMain(m *testing.M) {
	RegisterJob(stubJob, stubFactory)
	MaybeWorker()
	os.Exit(m.Run())
}

// The stub job doubles integers: each task's input file holds one integer
// n, and the task writes 2n to its output file. It exercises the
// executor's machinery (leases, file handoff, journal) without the typed
// engine, which has its own differential tests in internal/mapreduce.
const stubJob = "mrx.test.double"

func stubFactory(params []byte) (Runner, error) {
	return func(input, output string) error {
		data, err := os.ReadFile(input)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil {
			return err
		}
		return os.WriteFile(output, []byte(strconv.Itoa(2*n)), 0o644)
	}, nil
}

// stubOpts builds a run over the given values with fast test timings.
func stubOpts(t *testing.T, values []int, workers int) Options {
	t.Helper()
	scratch := t.TempDir()
	inputs := make([]string, len(values))
	for i, v := range values {
		path := filepath.Join(scratch, fmt.Sprintf("in-%03d.txt", i))
		if err := os.WriteFile(path, []byte(strconv.Itoa(v)), 0o644); err != nil {
			t.Fatal(err)
		}
		inputs[i] = path
	}
	return Options{
		Job:            stubJob,
		ScratchDir:     scratch,
		Inputs:         inputs,
		Workers:        workers,
		RetryBase:      5 * time.Millisecond,
		HeartbeatEvery: 50 * time.Millisecond,
		Logf:           t.Logf,
	}
}

// checkOutputs reads the run's task outputs back: task i must hold twice
// values[i].
func checkOutputs(t *testing.T, res *JobResult, values []int) {
	t.Helper()
	if len(res.Outputs) != len(values) {
		t.Fatalf("%d outputs, want %d", len(res.Outputs), len(values))
	}
	for i, out := range res.Outputs {
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("task %d output: %v", i, err)
		}
		if got := strings.TrimSpace(string(data)); got != strconv.Itoa(2*values[i]) {
			t.Fatalf("task %d output %q, want %d", i, got, 2*values[i])
		}
	}
}

func TestCoordinatorBasic(t *testing.T) {
	values := []int{1, 2, 3, 4, 5, 6, 7, 8}
	opts := stubOpts(t, values, 2)
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	if res.Stats.WorkerDeaths != 0 || res.Stats.TasksReexecuted != 0 {
		t.Fatalf("fault-free run reported faults: %+v", res.Stats)
	}
}

// withWorkerSchedule targets an env-transported fault schedule at one
// worker index.
func withWorkerSchedule(t *testing.T, opts *Options, worker int, rules ...faultinject.EnvRule) {
	t.Helper()
	enc, err := faultinject.Schedule{Worker: worker, Rules: rules}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	opts.Env = append(opts.Env, faultinject.EnvScheduleVar+"="+enc)
}

// TestWorkerDiesBeforeTask kills worker 0 at PointMrxWorkerTask — it
// exits without ever reporting the task — and asserts the lease is
// revoked and the task re-executed to a correct result.
func TestWorkerDiesBeforeTask(t *testing.T) {
	values := []int{10, 11, 12, 13, 14, 15}
	opts := stubOpts(t, values, 2)
	withWorkerSchedule(t, &opts, 0,
		faultinject.EnvRule{Point: string(faultinject.PointMrxWorkerTask), From: 1, Crash: true})
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	if res.Stats.WorkerDeaths < 1 {
		t.Fatalf("no worker death recorded: %+v", res.Stats)
	}
	if res.Stats.TasksReexecuted < 1 {
		t.Fatalf("dead worker's task not re-executed: %+v", res.Stats)
	}
}

// TestWorkerDiesAfterOutputBeforeAck kills worker 0 at PointMrxWorkerAck:
// the task's output file is on disk but the coordinator never hears
// task-done. The lease must be revoked and the task re-run (rewriting the
// same output path).
func TestWorkerDiesAfterOutputBeforeAck(t *testing.T) {
	values := []int{20, 21, 22, 23, 24, 25, 26, 27}
	opts := stubOpts(t, values, 3)
	withWorkerSchedule(t, &opts, 0,
		faultinject.EnvRule{Point: string(faultinject.PointMrxWorkerAck), From: 1, Crash: true})
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	if res.Stats.WorkerDeaths < 1 || res.Stats.TasksReexecuted < 1 {
		t.Fatalf("ack-crash not recovered via re-execution: %+v", res.Stats)
	}
}

// TestWorkerStallKilledByWatchdog wedges worker 0 (its task hangs and its
// heartbeats are starved at PointMrxWorkerHeartbeat) and asserts the
// coordinator's watchdog kills it and the task completes elsewhere.
func TestWorkerStallKilledByWatchdog(t *testing.T) {
	values := []int{30, 31, 32, 33}
	opts := stubOpts(t, values, 2)
	opts.StallAfter = 400 * time.Millisecond
	withWorkerSchedule(t, &opts, 0,
		faultinject.EnvRule{Point: string(faultinject.PointMrxWorkerTask), From: 1, DelayMS: 60_000},
		faultinject.EnvRule{Point: string(faultinject.PointMrxWorkerHeartbeat), From: 1, To: 1_000_000, DelayMS: 60_000})
	start := time.Now()
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	if res.Stats.WorkerDeaths < 1 {
		t.Fatalf("stalled worker not killed: %+v", res.Stats)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("run waited out the hang (%v) instead of killing the stalled worker", elapsed)
	}
}

// TestCoordinatorResumesFromJournal crashes the coordinator mid-job (at
// its second task completion, via PointMrxComplete) and restarts it on
// the same scratch directory: the journal must let the restart skip the
// completed task and converge to the correct result.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	values := []int{40, 41, 42, 43, 44, 45}
	opts := stubOpts(t, values, 2)

	s := faultinject.New(0)
	s.CrashAt(faultinject.PointMrxComplete, 3)
	SetFaultHook(s.Hook())
	crash, err := faultinject.Run(func() error {
		_, rerr := Run(context.Background(), opts)
		return rerr
	})
	SetFaultHook(nil)
	if crash == nil {
		t.Fatalf("scripted coordinator crash did not fire (err=%v)", err)
	}

	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	if !res.Stats.Resumed {
		t.Fatal("restart did not adopt the journal")
	}
	if res.Stats.TasksRecovered < 1 {
		t.Fatalf("restart re-ran journalled tasks: %+v", res.Stats)
	}
}

// TestCoordinatorAssignFaultFailsJob covers the coordinator-side assign
// fault point: a persistent scripted error there must surface, not hang.
func TestCoordinatorAssignFaultFailsJob(t *testing.T) {
	values := []int{50, 51}
	opts := stubOpts(t, values, 1)
	s := faultinject.New(0)
	s.FailAt(faultinject.PointMrxAssign, 1, errors.New("scripted assign failure"))
	SetFaultHook(s.Hook())
	defer SetFaultHook(nil)
	if _, err := Run(context.Background(), opts); err == nil ||
		!strings.Contains(err.Error(), "scripted assign failure") {
		t.Fatalf("assign fault not surfaced: %v", err)
	}
}

// TestExecUnavailable: when no worker can be spawned at all (scripted
// PointMrxSpawn failures), Run reports ErrExecUnavailable so callers can
// degrade to the in-process engine.
func TestExecUnavailable(t *testing.T) {
	values := []int{70, 71}
	opts := stubOpts(t, values, 2)
	s := faultinject.New(0)
	s.FailTransient(faultinject.PointMrxSpawn, 1, 2, errors.New("scripted spawn failure"))
	SetFaultHook(s.Hook())
	defer SetFaultHook(nil)
	_, err := Run(context.Background(), opts)
	if !errors.Is(err, ErrExecUnavailable) {
		t.Fatalf("got %v, want ErrExecUnavailable", err)
	}
}

// TestWorkerIndexNeverReused: after a death and respawn, the replacement
// worker must get a fresh index, so a schedule targeting index 0 fires in
// exactly one process lifetime.
func TestWorkerIndexNeverReused(t *testing.T) {
	values := []int{80, 81, 82, 83}
	opts := stubOpts(t, values, 1)
	withWorkerSchedule(t, &opts, 0,
		faultinject.EnvRule{Point: string(faultinject.PointMrxWorkerTask), From: 1, Crash: true})
	res, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	checkOutputs(t, res, values)
	// Worker 0 dies once; its replacement (index 1) is untargeted and
	// finishes the job. A reused index 0 would crash-loop past the
	// respawn budget and fail the run.
	if res.Stats.WorkerDeaths != 1 || res.Stats.Respawns != 1 {
		t.Fatalf("expected exactly one death and one respawn: %+v", res.Stats)
	}
}
