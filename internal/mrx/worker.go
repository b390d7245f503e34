package mrx

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"baywatch/internal/faultinject"
)

// Worker-process side of the executor. A worker is this same binary
// re-exec'd with EnvWorker set: MaybeWorker (called at the top of main and
// of test TestMains) detects the variable, installs any env-transported
// fault schedule, serves tasks over stdin/stdout, and exits — the normal
// CLI or test run never starts.

// Environment variables the coordinator sets on exec'd workers.
const (
	// EnvWorker marks the process as a worker ("1").
	EnvWorker = "BAYWATCH_MRX_WORKER"
	// EnvWorkerIndex is the worker's coordinator-assigned index, used to
	// target env-transported fault schedules at one worker. Indices are
	// never reused, including across respawns.
	EnvWorkerIndex = "BAYWATCH_MRX_WORKER_INDEX"
)

// Runner executes one task inside a worker process: it reads the task's
// input file and writes its output file. Implementations live in the
// typed layer (internal/mapreduce) and reuse its record codec.
type Runner func(input, output string) error

// RunnerFactory instantiates a job's Runner from the coordinator's
// parameter blob (Hello.Params).
type RunnerFactory func(params []byte) (Runner, error)

var (
	jobsMu sync.Mutex
	jobs   = make(map[string]RunnerFactory)
)

// RegisterJob registers a named job's worker-side RunnerFactory. Typically
// called from an init function so every process — coordinator and exec'd
// worker alike — has the same registry. Registering a duplicate name
// panics: two jobs silently shadowing each other would run the wrong code
// in workers.
func RegisterJob(name string, f RunnerFactory) {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	if _, dup := jobs[name]; dup {
		panic(fmt.Sprintf("mrx: job %q registered twice", name))
	}
	jobs[name] = f
}

// RegisteredJobs lists the registered job names, sorted.
func RegisteredJobs() []string {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	names := make([]string, 0, len(jobs))
	for n := range jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func lookupJob(name string) (RunnerFactory, bool) {
	jobsMu.Lock()
	defer jobsMu.Unlock()
	f, ok := jobs[name]
	return f, ok
}

var (
	faultSinksMu sync.Mutex
	faultSinks   []func(hook func(point string) error)
)

// RegisterFaultSink registers a callback that receives the worker's fault
// hook when an env-transported schedule is installed, letting other
// packages (mapreduce) arm their own fault seams inside exec'd workers.
// Called from init functions.
func RegisterFaultSink(sink func(hook func(point string) error)) {
	faultSinksMu.Lock()
	defer faultSinksMu.Unlock()
	faultSinks = append(faultSinks, sink)
}

func installWorkerFaults(index int) error {
	sched, err := faultinject.DecodeSchedule(os.Getenv(faultinject.EnvScheduleVar))
	if err != nil {
		return err
	}
	s := sched.Scheduler(index)
	if s == nil {
		return nil
	}
	hook := s.Hook()
	SetFaultHook(hook)
	faultSinksMu.Lock()
	sinks := append([]func(hook func(point string) error){}, faultSinks...)
	faultSinksMu.Unlock()
	for _, sink := range sinks {
		sink(hook)
	}
	return nil
}

// MaybeWorker turns the process into a worker when EnvWorker is set; it
// never returns in that case. Call it first thing in main() and in the
// TestMain of packages whose tests exec workers (the test binary then
// re-execs as a worker before any test machinery runs).
func MaybeWorker() {
	if os.Getenv(EnvWorker) == "" {
		return
	}
	index, _ := strconv.Atoi(os.Getenv(EnvWorkerIndex))
	if err := installWorkerFaults(index); err != nil {
		fmt.Fprintf(os.Stderr, "mrx worker %d: %v\n", index, err)
		os.Exit(1)
	}
	if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "mrx worker %d: %v\n", index, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// frameWriter serializes concurrent frame writes (task loop + heartbeat
// goroutine share the worker's stdout).
type frameWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (fw *frameWriter) send(kind Kind, msg any) error {
	payload, err := encodeMsg(msg)
	if err != nil {
		return err
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return WriteFrame(fw.w, kind, payload)
}

// WorkerMain serves tasks over the given pipe pair until the coordinator
// sends a shutdown frame or closes the pipe. It is the worker process's
// entire life: hello → ready → (task → done/failed)* → shutdown.
func WorkerMain(r io.Reader, w io.Writer) error {
	kind, payload, err := ReadFrame(r)
	if err != nil {
		return fmt.Errorf("mrx worker: read hello: %w", err)
	}
	if kind != KindHello {
		return fmt.Errorf("mrx worker: expected hello, got %s", kind)
	}
	var hello Hello
	if err := decodeMsg(payload, &hello); err != nil {
		return err
	}
	factory, ok := lookupJob(hello.Job)
	if !ok {
		return fmt.Errorf("mrx worker: unknown job %q (registered: %v)", hello.Job, RegisteredJobs())
	}
	runner, err := factory(hello.Params)
	if err != nil {
		return fmt.Errorf("mrx worker: job %q: %w", hello.Job, err)
	}

	out := &frameWriter{w: w}
	hb := newHeartbeater(out, time.Duration(hello.HeartbeatMS)*time.Millisecond)
	defer hb.stop()
	if err := out.send(KindReady, &Heartbeat{}); err != nil {
		return fmt.Errorf("mrx worker: send ready: %w", err)
	}

	for {
		kind, payload, err := ReadFrame(r)
		if err == io.EOF {
			return nil // coordinator closed the pipe: done
		}
		if err != nil {
			return fmt.Errorf("mrx worker: read: %w", err)
		}
		switch kind {
		case KindShutdown:
			return nil
		case KindTask:
			var spec TaskSpec
			if err := decodeMsg(payload, &spec); err != nil {
				return err
			}
			if err := runTask(runner, spec, out, hb); err != nil {
				return err
			}
		default:
			return fmt.Errorf("mrx worker: unexpected frame %s", kind)
		}
	}
}

// runTask executes one task with heartbeats running, traversing the
// worker-side fault points: PointMrxWorkerTask before the task body (a
// crash here dies before any work) and PointMrxWorkerAck after the body
// but before task-done is sent (a crash here dies with the task's output
// written but unacknowledged).
func runTask(runner Runner, spec TaskSpec, out *frameWriter, hb *heartbeater) error {
	hb.start(spec.Seq)
	defer hb.idle()
	fail := func(err error) error {
		return out.send(KindTaskFailed, &TaskFailed{Seq: spec.Seq, Err: err.Error()})
	}
	if err := faultCheck(faultinject.PointMrxWorkerTask); err != nil {
		return fail(err)
	}
	if err := runner(spec.Input, spec.Output); err != nil {
		return fail(err)
	}
	if err := faultCheck(faultinject.PointMrxWorkerAck); err != nil {
		return fail(err)
	}
	return out.send(KindTaskDone, &TaskResult{Seq: spec.Seq})
}

// heartbeater sends periodic heartbeat frames — busy or idle — so the
// coordinator's watchdog can tell a slow task (or a quiet wait for the
// next assignment) from a hung worker.
type heartbeater struct {
	out   *frameWriter
	every time.Duration

	mu   sync.Mutex
	seq  uint64
	busy bool

	quit chan struct{}
	done chan struct{}
}

func newHeartbeater(out *frameWriter, every time.Duration) *heartbeater {
	if every <= 0 {
		every = time.Second
	}
	h := &heartbeater{
		out:   out,
		every: every,
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	//bw:guarded worker-lifetime goroutine; stop() joins it before WorkerMain returns
	go h.loop()
	return h
}

func (h *heartbeater) start(seq uint64) {
	h.mu.Lock()
	h.seq, h.busy = seq, true
	h.mu.Unlock()
}

func (h *heartbeater) idle() {
	h.mu.Lock()
	h.busy = false
	h.mu.Unlock()
}

func (h *heartbeater) stop() {
	close(h.quit)
	<-h.done
}

func (h *heartbeater) loop() {
	defer close(h.done)
	ticker := time.NewTicker(h.every)
	defer ticker.Stop()
	for {
		select {
		case <-h.quit:
			return
		case <-ticker.C:
		}
		h.mu.Lock()
		seq := uint64(0)
		if h.busy {
			seq = h.seq
		}
		h.mu.Unlock()
		// The fault point runs before the send so an env-scheduled delay
		// here starves the coordinator of heartbeats (the liveness tests'
		// way of simulating a wedged worker).
		if err := faultCheck(faultinject.PointMrxWorkerHeartbeat); err != nil {
			continue
		}
		if err := h.out.send(KindHeartbeat, &Heartbeat{Seq: seq}); err != nil {
			return // pipe gone: the process is about to die anyway
		}
	}
}
