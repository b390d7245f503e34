package mapreduce

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/mrx"
)

// TestMain registers the distributable test job and then lets the test
// binary serve as a worker process when a coordinator test re-execs it.
// Registration must precede MaybeWorker so exec'd workers can resolve
// the job.
func TestMain(m *testing.M) {
	RegisterExec(execTestJob, buildExecWordCount)
	mrx.MaybeWorker()
	os.Exit(m.Run())
}

const execTestJob = "mapreduce.test.wordcount"

// execParams is the serializable construction recipe both sides share:
// the coordinator encodes it into RunExec's params blob, workers decode
// it in buildExecWordCount. Coordinator and workers must build identical
// jobs or the differential guarantees are void.
type execParams struct {
	Workers       int
	PartitionBits int
	MaxFailed     int
}

// job counts each line's words; a line starting with "poison" fails.
func (p execParams) job() *Job[string, kv] {
	return NewJob(
		JobConfig{Name: "exec-wordcount", Workers: p.Workers, PartitionBits: p.PartitionBits, MaxFailed: p.MaxFailed},
		func(line string) string { return line },
		func(line string) (kv, error) {
			if strings.HasPrefix(line, "poison") {
				return kv{}, fmt.Errorf("poisoned line %q", line)
			}
			return kv{Key: line, Count: len(strings.Fields(line))}, nil
		},
	)
}

func buildExecWordCount(params []byte) (*Job[string, kv], error) {
	var p execParams
	if err := gob.NewDecoder(bytes.NewReader(params)).Decode(&p); err != nil {
		return nil, fmt.Errorf("exec wordcount params: %w", err)
	}
	return p.job(), nil
}

func encodeExecParams(t *testing.T, p execParams) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// execTestLines generates deterministic, distinct input lines.
func execTestLines(n int) []string {
	words := []string{"beacon", "host", "dns", "c2", "ping", "poll", "jitter", "tick"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%d %s %s %s", i,
			words[i%len(words)], words[(i*3+1)%len(words)], words[(i*7+2)%len(words)])
	}
	return lines
}

// baseExecParams spreads the test inputs over up to eight tasks.
func baseExecParams() execParams {
	return execParams{Workers: 2, PartitionBits: 3}
}

func fastExec(workers int) ExecConfig {
	return ExecConfig{
		Workers:         workers,
		DisableFallback: true,
		HeartbeatEvery:  50 * time.Millisecond,
	}
}

// TestExecDifferential pins the shared-loop guarantee: the distributed
// run produces a bit-identical Result — outputs, order, and counters — to
// a plain in-process Run. The job has no combiner stage, which the case
// name records.
func TestExecDifferential(t *testing.T) {
	t.Run("combiner=false", func(t *testing.T) {
		p := baseExecParams()
		inputs := execTestLines(40)
		want, err := p.job().Run(context.Background(), inputs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.job().RunExec(context.Background(), execTestJob,
			encodeExecParams(t, p), fastExec(3), inputs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("distributed result differs from in-process:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

func TestExecEmptyInput(t *testing.T) {
	p := baseExecParams()
	want, err := p.job().Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), fastExec(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty-input distributed result differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExecWorkerKillEveryPointConverges kills worker 0 at every
// registered worker-side fault point, one run per point, and asserts the
// job converges to the exact in-process Result every time. The task point
// is keyed, so it is scheduled at the first input of task 0, the task
// worker 0 is handed first.
func TestExecWorkerKillEveryPointConverges(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(30)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	var first string
	for _, part := range p.job().partition(inputs) {
		if len(part) > 0 {
			first = part[0]
			break
		}
	}
	for _, pt := range []faultinject.Point{
		faultinject.PointMrxWorkerTask,
		faultinject.PointMrxWorkerAck,
		faultinject.PointMrxWorkerHeartbeat,
		faultinject.PointMapreduceTask,
	} {
		t.Run(string(pt), func(t *testing.T) {
			point := pt
			if pt == faultinject.PointMapreduceTask {
				point = pt.Keyed(first)
			}
			enc, err := faultinject.Schedule{
				Worker: 0,
				Rules:  []faultinject.EnvRule{{Point: string(point), From: 1, Crash: true}},
			}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			ec := fastExec(3)
			ec.Env = []string{faultinject.EnvScheduleVar + "=" + enc}
			ec.Logf = t.Logf
			got, err := p.job().RunExec(context.Background(), execTestJob,
				encodeExecParams(t, p), ec, inputs)
			if err != nil {
				t.Fatalf("job did not survive worker kill at %s: %v", point, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kill at %s: result diverged:\ngot  %+v\nwant %+v", point, got, want)
			}
		})
	}
}

// TestExecCoordinatorCrashEveryHitResumes crashes the coordinator at
// every coordinator-side fault-point traversal in turn (spawn, assign,
// complete, journal write), restarts it on the same scratch directory,
// and asserts each resumed run converges to the in-process Result.
func TestExecCoordinatorCrashEveryHitResumes(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(24)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	// Count the coordinator-side traversals of a clean distributed run.
	probe := faultinject.New(0)
	mrx.SetFaultHook(probe.Hook())
	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), fastExec(2), inputs)
	mrx.SetFaultHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clean distributed run diverged:\ngot  %+v\nwant %+v", got, want)
	}
	total := probe.TotalHits()
	if total < 5 {
		t.Fatalf("probe counted only %d coordinator fault-point hits", total)
	}

	for n := 1; n <= total; n++ {
		n := n
		t.Run(fmt.Sprintf("hit-%02d", n), func(t *testing.T) {
			scratch := t.TempDir()
			ec := fastExec(2)
			ec.ScratchDir = scratch
			s := faultinject.New(0)
			s.CrashAtGlobalHit(n)
			mrx.SetFaultHook(s.Hook())
			crash, runErr := faultinject.Run(func() error {
				_, err := p.job().RunExec(context.Background(), execTestJob,
					encodeExecParams(t, p), ec, inputs)
				return err
			})
			mrx.SetFaultHook(nil)
			if crash == nil && runErr == nil {
				// Scheduling drift let this run finish before hit n; the
				// completed run already removed its scratch, nothing to
				// resume.
				return
			}
			got, err := p.job().RunExec(context.Background(), execTestJob,
				encodeExecParams(t, p), ec, inputs)
			if err != nil {
				t.Fatalf("resume after crash at hit %d failed: %v", n, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("resume after crash at hit %d diverged:\ngot  %+v\nwant %+v", n, got, want)
			}
		})
	}
}

// TestExecResumeSkipsCompletedTasks restarts a mid-job-crashed
// coordinator and proves journalled tasks are not re-executed: their
// output files' modification times do not change across the resumed run.
func TestExecResumeSkipsCompletedTasks(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(24)
	scratch := t.TempDir()
	ec := fastExec(1)
	ec.ScratchDir = scratch

	// One worker runs the tasks in index order, and each is journalled
	// before the next is assigned: a crash at the third assignment leaves
	// exactly tasks 0 and 1 complete, journalled and on disk.
	s := faultinject.New(0)
	s.CrashAt(faultinject.PointMrxAssign, 3)
	mrx.SetFaultHook(s.Hook())
	crash, _ := faultinject.Run(func() error {
		_, err := p.job().RunExec(context.Background(), execTestJob,
			encodeExecParams(t, p), ec, inputs)
		return err
	})
	mrx.SetFaultHook(nil)
	if crash == nil {
		t.Fatal("scripted coordinator crash did not fire")
	}

	// The coordinator names task outputs task-NNN.out in its scratch.
	outputs, err := filepath.Glob(filepath.Join(scratch, "task-*.out"))
	if err != nil || len(outputs) != 2 {
		t.Fatalf("want the two journalled task outputs after the crash, got %v (err=%v)", outputs, err)
	}
	before := make(map[string]time.Time, len(outputs))
	for _, path := range outputs {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = fi.ModTime()
	}

	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	// RunExec removes its scratch once the job succeeds, so snapshot the
	// output mtimes mid-resume — at the first assignment, when the resumed
	// run is under way but the scratch still exists.
	during := make(map[string]time.Time)
	var snapErr error
	mrx.SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMrxAssign) && len(during) == 0 {
			for path := range before {
				fi, err := os.Stat(path)
				if err != nil {
					snapErr = err
					return nil
				}
				during[path] = fi.ModTime()
			}
		}
		return nil
	})
	defer mrx.SetFaultHook(nil)

	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ec, inputs)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed result diverged:\ngot  %+v\nwant %+v", got, want)
	}
	if snapErr != nil {
		t.Fatalf("journalled output vanished during resume: %v", snapErr)
	}
	if len(during) != len(before) {
		t.Fatalf("mtime snapshot incomplete: %d/%d outputs seen", len(during), len(before))
	}
	for path, mtime := range before {
		if !during[path].Equal(mtime) {
			t.Fatalf("journalled task re-ran during resume: %s was rewritten", path)
		}
	}
}

// TestExecCorruptTaskFileFailsLoudly: a task input or output that fails
// its checksum fails the distributed job with ErrCorrupt; nothing is
// silently re-derived.
func TestExecCorruptTaskFileFailsLoudly(t *testing.T) {
	for _, tc := range []struct {
		name    string
		point   faultinject.Point // where the coordinator's hook corrupts
		pattern string
	}{
		{"input", faultinject.PointMrxSpawn, "input-*.gob"},
		{"output", faultinject.PointMrxComplete, "task-*.out"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := baseExecParams()
			scratch := t.TempDir()
			ec := fastExec(2)
			ec.ScratchDir = scratch
			var corrupted []string
			mrx.SetFaultHook(func(point string) error {
				if point == string(tc.point) && len(corrupted) == 0 {
					corrupted, _ = filepath.Glob(filepath.Join(scratch, tc.pattern))
					for _, path := range corrupted {
						if fi, err := os.Stat(path); err == nil {
							os.Truncate(path, fi.Size()-5)
						}
					}
				}
				return nil
			})
			defer mrx.SetFaultHook(nil)
			_, err := p.job().RunExec(context.Background(), execTestJob,
				encodeExecParams(t, p), ec, execTestLines(30))
			if len(corrupted) == 0 {
				t.Fatal("no file was corrupted; test exercised nothing")
			}
			if err == nil || !strings.Contains(err.Error(), ErrCorrupt.Error()) {
				t.Fatalf("err = %v, want the corruption reported", err)
			}
		})
	}
}

// TestExecFailureBudgetIsJobWide: a worker checks the budget against its
// own task, and RunExec charges the job's total against it, so a
// distributed run accepts exactly the failures an in-process run does.
func TestExecFailureBudgetIsJobWide(t *testing.T) {
	p := baseExecParams()
	// Two poisoned lines in different partitions: neither task alone
	// exceeds a budget of one.
	poisoned := []string{"poison 0"}
	for i := 1; len(poisoned) < 2; i++ {
		line := fmt.Sprintf("poison %d", i)
		if partitionOf(line, p.PartitionBits) != partitionOf(poisoned[0], p.PartitionBits) {
			poisoned = append(poisoned, line)
		}
	}
	inputs := append(execTestLines(30), poisoned...)
	for _, budget := range []int{1, 2} {
		p.MaxFailed = budget
		want, wantErr := p.job().Run(context.Background(), inputs)
		got, err := p.job().RunExec(context.Background(), execTestJob,
			encodeExecParams(t, p), fastExec(2), inputs)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("budget %d: distributed err = %v, in-process err = %v", budget, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: distributed result differs:\ngot  %+v\nwant %+v", budget, got, want)
		}
	}
}

// TestExecFallback: when no worker can be spawned, RunExec degrades to
// the in-process engine (same Result) unless fallback is disabled.
func TestExecFallback(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(20)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	s := faultinject.New(0)
	s.FailTransient(faultinject.PointMrxSpawn, 1, 99, errors.New("exec disabled in this environment"))
	mrx.SetFaultHook(s.Hook())
	defer mrx.SetFaultHook(nil)

	ec := ExecConfig{Workers: 2, HeartbeatEvery: 50 * time.Millisecond}
	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ec, inputs)
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback result diverged:\ngot  %+v\nwant %+v", got, want)
	}

	ec.DisableFallback = true
	if _, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ec, inputs); !errors.Is(err, mrx.ErrExecUnavailable) {
		t.Fatalf("DisableFallback: err = %v, want ErrExecUnavailable", err)
	}
}

// TestExecDisabledRunsInProcess: the zero ExecConfig must route straight
// to Run.
func TestExecDisabledRunsInProcess(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(12)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ExecConfig{}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disabled exec diverged from Run:\ngot  %+v\nwant %+v", got, want)
	}
}
