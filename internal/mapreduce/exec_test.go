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
	"sort"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/mrx"
)

// TestMain registers the distributable test jobs and then lets the test
// binary serve as a worker process when a coordinator test re-execs it.
// Registration must precede MaybeWorker so exec'd workers can resolve
// the jobs.
func TestMain(m *testing.M) {
	RegisterExec[string, string, int, kv](execTestJob, buildExecWordCount)
	mrx.MaybeWorker()
	os.Exit(m.Run())
}

const execTestJob = "mapreduce.test.wordcount"

// execParams is the serializable construction recipe both sides share:
// the coordinator encodes it into RunExec's params blob, workers decode
// it in buildExecWordCount. Coordinator and workers must build identical
// jobs or the differential guarantees are void.
type execParams struct {
	Mappers       int
	Reducers      int
	PartitionBits int
}

func (p execParams) job() *Job[string, string, int, kv] {
	return wordCountJob(JobConfig{
		Name:          "exec-wordcount",
		Mappers:       p.Mappers,
		Reducers:      p.Reducers,
		PartitionBits: p.PartitionBits,
	})
}

func buildExecWordCount(params []byte) (*Job[string, string, int, kv], error) {
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

// execTestLines generates deterministic word-count input.
func execTestLines(n int) []string {
	words := []string{"beacon", "host", "dns", "c2", "ping", "poll", "jitter", "tick"}
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%s %s %s",
			words[i%len(words)], words[(i*3+1)%len(words)], words[(i*7+2)%len(words)])
	}
	return lines
}

func baseExecParams() execParams {
	return execParams{Mappers: 3, Reducers: 2, PartitionBits: 2}
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
// job converges to the exact in-process Result every time — the ISSUE's
// acceptance criterion for worker-death recovery.
func TestExecWorkerKillEveryPointConverges(t *testing.T) {
	points := []faultinject.Point{
		faultinject.PointMrxWorkerTask,
		faultinject.PointMrxWorkerAck,
		faultinject.PointMrxWorkerHeartbeat,
		faultinject.PointMapreduceMapTask,
		faultinject.PointMapreduceReduceTask,
		faultinject.PointMapreduceSpillWrite,
		faultinject.PointMapreduceSpillReplay,
	}
	p := baseExecParams()
	inputs := execTestLines(30)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		t.Run(string(pt), func(t *testing.T) {
			enc, err := faultinject.Schedule{
				Worker: 0,
				Rules:  []faultinject.EnvRule{{Point: string(pt), From: 1, Crash: true}},
			}.Encode()
			if err != nil {
				t.Fatal(err)
			}
			ec := fastExec(3)
			ec.Env = []string{faultinject.EnvScheduleVar + "=" + enc}
			got, err := p.job().RunExec(context.Background(), execTestJob,
				encodeExecParams(t, p), ec, inputs)
			if err != nil {
				t.Fatalf("job did not survive worker kill at %s: %v", pt, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("kill at %s: result diverged:\ngot  %+v\nwant %+v", pt, got, want)
			}
		})
	}
}

// TestExecCoordinatorCrashEveryHitResumes crashes the coordinator at
// every coordinator-side fault-point traversal in turn (spawn, assign,
// complete, shuffle barrier, journal write), restarts it on the same
// scratch directory, and asserts each resumed run converges to the
// in-process Result — the ISSUE's crash-safe-coordinator criterion.
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
// coordinator and proves journalled map tasks are not re-executed: their
// spill files' modification times do not change across the resumed run.
func TestExecResumeSkipsCompletedTasks(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(24)
	scratch := t.TempDir()
	ec := fastExec(2)
	ec.ScratchDir = scratch

	// Crash at the shuffle barrier: every map task is complete and
	// journalled, no reduce has run.
	s := faultinject.New(0)
	s.CrashAt(faultinject.PointMrxShuffleBarrier, 1)
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

	spills, err := filepath.Glob(filepath.Join(scratch, "map-*", "spill-*.gob"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("no spill files survived the crash (err=%v)", err)
	}
	sort.Strings(spills)
	before := make(map[string]time.Time, len(spills))
	for _, path := range spills {
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
	// spill mtimes mid-resume — at the shuffle barrier, when every map is
	// done but the scratch still exists.
	during := make(map[string]time.Time)
	var snapErr error
	mrx.SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMrxShuffleBarrier) && len(during) == 0 {
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
		t.Fatalf("journalled spill vanished during resume: %v", snapErr)
	}
	if len(during) != len(before) {
		t.Fatalf("mtime snapshot incomplete: %d/%d spills seen at the barrier", len(during), len(before))
	}
	for path, mtime := range before {
		if !during[path].Equal(mtime) {
			t.Fatalf("journalled map task re-ran during resume: %s was rewritten", path)
		}
	}
}

// TestExecDistributedCorruptSpillRecovered truncates one spill file at
// the shuffle barrier (maps done, reduces not yet assigned): the reduce
// replay reports it, the coordinator quarantines the file and re-executes
// the producing map shard, and the job converges.
func TestExecDistributedCorruptSpillRecovered(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(30)
	want, err := p.job().Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}

	scratch := t.TempDir()
	ec := fastExec(2)
	ec.ScratchDir = scratch
	var corrupted string
	mrx.SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMrxShuffleBarrier) && corrupted == "" {
			paths, _ := filepath.Glob(filepath.Join(scratch, "map-*", "spill-*.gob"))
			sort.Strings(paths)
			if len(paths) > 0 {
				corrupted = paths[0]
				fi, err := os.Stat(corrupted)
				if err == nil {
					os.Truncate(corrupted, fi.Size()-5)
				}
			}
		}
		return nil
	})
	defer mrx.SetFaultHook(nil)

	got, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ec, inputs)
	if err != nil {
		t.Fatalf("distributed corruption not recovered: %v", err)
	}
	if corrupted == "" {
		t.Fatal("no spill file was corrupted; test exercised nothing")
	}
	if got.Counters.CorruptSpills != 1 || got.Counters.ShardReruns != 1 {
		t.Fatalf("recovery counters: CorruptSpills=%d ShardReruns=%d, want 1/1",
			got.Counters.CorruptSpills, got.Counters.ShardReruns)
	}
	got.Counters.CorruptSpills, got.Counters.ShardReruns = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered distributed result diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestExecDistributedPersistentCorruptionFails re-corrupts the spill file
// every time a task is assigned, so the one bounded shard re-execution
// cannot help: the job must fail, not loop.
func TestExecDistributedPersistentCorruptionFails(t *testing.T) {
	p := baseExecParams()
	inputs := execTestLines(30)
	scratch := t.TempDir()
	ec := fastExec(2)
	ec.ScratchDir = scratch
	var target string
	mrx.SetFaultHook(func(point string) error {
		switch point {
		case string(faultinject.PointMrxShuffleBarrier):
			paths, _ := filepath.Glob(filepath.Join(scratch, "map-*", "spill-*.gob"))
			sort.Strings(paths)
			if len(paths) > 0 {
				target = paths[0]
			}
		}
		if target != "" {
			if fi, err := os.Stat(target); err == nil && fi.Size() > 10 {
				os.Truncate(target, 10)
			}
		}
		return nil
	})
	defer mrx.SetFaultHook(nil)

	_, err := p.job().RunExec(context.Background(), execTestJob,
		encodeExecParams(t, p), ec, inputs)
	if err == nil {
		t.Fatal("persistently corrupt spill did not fail the distributed job")
	}
	if !strings.Contains(err.Error(), "corrupted its spills again") {
		t.Fatalf("err = %v, want the bounded-rerun failure", err)
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
