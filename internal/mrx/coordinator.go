package mrx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"baywatch/internal/faultinject"
	"baywatch/internal/guard"
)

// ErrExecUnavailable reports that no worker process could be started at
// all (exec disabled or failing in this environment). Callers degrade to
// the in-process engine when they see it.
var ErrExecUnavailable = errors.New("mrx: worker exec unavailable")

// Options configures one coordinator run.
type Options struct {
	// Job is the RegisterJob name both the coordinator and its workers
	// resolve.
	Job string
	// Params is the job's opaque construction blob, passed to the
	// worker-side RunnerFactory via Hello.
	Params []byte
	// ScratchDir holds the task outputs and the recovery journal. A re-run
	// pointed at the same directory resumes from the journal.
	ScratchDir string
	// Inputs are the tasks' input files, one per task.
	Inputs []string
	// Workers is the target number of worker processes (min 1).
	Workers int
	// Command is the worker argv; default is this binary re-exec'd
	// (os.Executable) — MaybeWorker turns it into a worker.
	Command []string
	// Env is extra environment appended to the workers' inherited
	// environment (after os.Environ, before the mrx worker variables).
	Env []string
	// MaxTaskRetries bounds per-task re-executions (default 3).
	MaxTaskRetries int
	// RetryBase and RetryCap shape the capped-exponential requeue
	// backoff (defaults 25ms and 2s).
	RetryBase time.Duration
	RetryCap  time.Duration
	// HeartbeatEvery is the workers' heartbeat period (default 250ms);
	// StallAfter is how long a leased worker may be silent before the
	// watchdog kills it (default 8× HeartbeatEvery).
	HeartbeatEvery time.Duration
	StallAfter     time.Duration
	// MaxRespawns bounds replacement workers started after deaths
	// (default 2× Workers).
	MaxRespawns int
	// Logf, when non-nil, receives progress and recovery notes.
	Logf func(format string, args ...any)
}

// Stats counts the run's fault-handling activity.
type Stats struct {
	// Resumed reports that a prior journal was adopted.
	Resumed bool
	// TasksRecovered is how many completed tasks the journal let the run
	// skip.
	TasksRecovered int
	// WorkerDeaths counts workers lost to pipe EOF, bad frames, or
	// watchdog kills; Respawns counts their started replacements.
	WorkerDeaths int
	Respawns     int
	// TasksReexecuted counts task requeues caused by failures or deaths.
	TasksReexecuted int
}

// JobResult is the coordinator's output: every task's output file, in
// task order, for the typed layer to read.
type JobResult struct {
	Outputs []string
	Stats   Stats
}

// task is one schedulable unit with its retry state.
type task struct {
	index     int
	attempts  int
	notBefore time.Time
	done      bool
}

// lease ties an outstanding assignment (by sequence number) to its task,
// so frames from revoked leases are discarded by seq mismatch.
type lease struct {
	t *task
	w *workerProc
}

// workerProc is one live exec'd worker.
type workerProc struct {
	index  int
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	hb     *guard.Heartbeat
	busy   *task
	seq    uint64
	stderr *tailBuffer
}

func (w *workerProc) kill() {
	if w.cmd != nil && w.cmd.Process != nil {
		w.cmd.Process.Kill()
	}
}

// event is one frame (or death notice) from a worker's reader goroutine.
type event struct {
	w       *workerProc
	kind    Kind
	payload []byte
	err     error // non-nil: the worker is dead (EOF, bad frame, exit)
}

type coordinator struct {
	ctx  context.Context
	opts Options
	j    *journal
	wd   *guard.Watchdog

	events    chan event
	stopDrain chan struct{}
	readers   sync.WaitGroup

	workers   map[*workerProc]struct{}
	nextIndex int
	nextSeq   uint64
	leases    map[uint64]*lease

	tasks []*task
	stats Stats
}

// Run executes the job across exec'd worker processes and returns every
// task's output file. It resumes from a recovery journal in
// ScratchDir when one exists, re-executes tasks leased to dead workers,
// and returns an error wrapping ErrExecUnavailable if no worker could be
// started at all.
func Run(ctx context.Context, opts Options) (result *JobResult, err error) {
	if err := applyDefaults(&opts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.ScratchDir, 0o755); err != nil {
		return nil, fmt.Errorf("mrx: scratch dir: %w", err)
	}
	j, resumed, err := openJournal(opts.ScratchDir, opts.Job)
	if err != nil {
		return nil, err
	}
	c := &coordinator{
		ctx:       ctx,
		opts:      opts,
		j:         j,
		wd:        guard.NewWatchdog(opts.StallAfter, 0),
		events:    make(chan event, 64),
		stopDrain: make(chan struct{}),
		workers:   make(map[*workerProc]struct{}),
		leases:    make(map[uint64]*lease),
	}
	c.stats.Resumed = resumed
	// Cleanup must run even when a fault-injected crash panics out of the
	// run: kill every worker, join the readers, stop the watchdog.
	defer func() {
		close(c.stopDrain)
		for w := range c.workers {
			w.kill()
			w.stdin.Close()
			w.hb.Done()
		}
		c.readers.Wait()
		c.wd.Stop()
	}()

	c.tasks = make([]*task, len(opts.Inputs))
	for i := range c.tasks {
		c.tasks[i] = &task{index: i}
	}
	c.recoverFromJournal()

	started, firstErr := 0, error(nil)
	for i := 0; i < opts.Workers; i++ {
		if _, serr := c.spawnWorker(); serr != nil {
			if firstErr == nil {
				firstErr = serr
			}
		} else {
			started++
		}
	}
	if started == 0 {
		return nil, fmt.Errorf("%w: %v", ErrExecUnavailable, firstErr)
	}

	if err := c.schedule(); err != nil {
		return nil, err
	}
	c.shutdownWorkers()
	res := &JobResult{Outputs: make([]string, len(c.tasks)), Stats: c.stats}
	for i := range c.tasks {
		res.Outputs[i] = c.outputPath(i)
	}
	return res, nil
}

func applyDefaults(opts *Options) error {
	if opts.Job == "" {
		return errors.New("mrx: Options.Job is required")
	}
	if opts.ScratchDir == "" {
		return errors.New("mrx: Options.ScratchDir is required")
	}
	if len(opts.Inputs) == 0 {
		return errors.New("mrx: Options.Inputs is empty")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if len(opts.Command) == 0 {
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("%w: cannot locate own binary: %v", ErrExecUnavailable, err)
		}
		opts.Command = []string{self}
	}
	if opts.MaxTaskRetries <= 0 {
		opts.MaxTaskRetries = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 2 * time.Second
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 250 * time.Millisecond
	}
	if opts.StallAfter <= 0 {
		opts.StallAfter = 8 * opts.HeartbeatEvery
	}
	if opts.MaxRespawns <= 0 {
		opts.MaxRespawns = 2 * opts.Workers
	}
	return nil
}

func (c *coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// recoverFromJournal marks journalled tasks done when their output files
// still exist; a task whose output is gone runs again.
func (c *coordinator) recoverFromJournal() {
	for i, t := range c.tasks {
		if !c.j.state.Done[i] {
			continue
		}
		if _, err := os.Stat(c.outputPath(i)); err != nil {
			continue
		}
		t.done = true
		c.stats.TasksRecovered++
	}
	if c.stats.TasksRecovered > 0 {
		c.logf("mrx: journal recovery: %d task(s) skipped", c.stats.TasksRecovered)
	}
}

func (c *coordinator) outputPath(i int) string {
	return filepath.Join(c.opts.ScratchDir, fmt.Sprintf("task-%03d.out", i))
}

// schedule drives every task to completion: assigns ready tasks to idle
// workers, processes worker events, requeues on failure or death.
func (c *coordinator) schedule() error {
	for {
		pending := 0
		for _, t := range c.tasks {
			if !t.done {
				pending++
			}
		}
		if pending == 0 {
			return nil
		}
		if err := c.assignReady(); err != nil {
			return err
		}
		timer := c.wakeTimer()
		select {
		case <-c.ctx.Done():
			stopTimer(timer)
			return c.ctx.Err()
		case ev := <-c.events:
			stopTimer(timer)
			if err := c.handleEvent(ev); err != nil {
				return err
			}
		case <-timerC(timer):
			// Backoff expired: loop re-assigns.
		}
	}
}

// wakeTimer returns a timer for the earliest notBefore among unassigned
// pending tasks, or nil to block on events alone.
func (c *coordinator) wakeTimer() *time.Timer {
	var earliest time.Time
	for _, t := range c.tasks {
		if t.done || c.isLeased(t) || t.notBefore.IsZero() {
			continue
		}
		if earliest.IsZero() || t.notBefore.Before(earliest) {
			earliest = t.notBefore
		}
	}
	if earliest.IsZero() {
		return nil
	}
	d := time.Until(earliest)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return time.NewTimer(d)
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

func timerC(t *time.Timer) <-chan time.Time {
	if t == nil {
		return nil
	}
	return t.C
}

func (c *coordinator) isLeased(t *task) bool {
	for _, l := range c.leases {
		if l.t == t {
			return true
		}
	}
	return false
}

// assignReady hands every ready pending task to an idle worker, lowest
// task index first for deterministic assignment order.
func (c *coordinator) assignReady() error {
	now := time.Now()
	idle := c.idleWorkers()
	for _, t := range c.tasks {
		if len(idle) == 0 {
			return nil
		}
		if t.done || c.isLeased(t) || t.notBefore.After(now) {
			continue
		}
		if err := c.assign(idle[0], t); err != nil {
			return err
		}
		idle = idle[1:]
	}
	return nil
}

func (c *coordinator) idleWorkers() []*workerProc {
	var idle []*workerProc
	for w := range c.workers {
		if w.busy == nil {
			idle = append(idle, w)
		}
	}
	sort.Slice(idle, func(i, j int) bool { return idle[i].index < idle[j].index })
	return idle
}

func (c *coordinator) assign(w *workerProc, t *task) error {
	if err := faultCheck(faultinject.PointMrxAssign); err != nil {
		return fmt.Errorf("mrx: assign: %w", err)
	}
	c.nextSeq++
	spec := TaskSpec{Seq: c.nextSeq, Index: t.index, Input: c.opts.Inputs[t.index], Output: c.outputPath(t.index)}
	payload, err := encodeMsg(&spec)
	if err != nil {
		return err
	}
	w.busy, w.seq = t, spec.Seq
	c.leases[spec.Seq] = &lease{t: t, w: w}
	if err := WriteFrame(w.stdin, KindTask, payload); err != nil {
		// The pipe is broken: the worker is dead or dying; its reader
		// will (or already did) deliver the death event, which requeues
		// this task.
		c.logf("mrx: worker %d: assign failed: %v", w.index, err)
	}
	return nil
}

// handleEvent processes one worker frame or death notice.
func (c *coordinator) handleEvent(ev event) error {
	if _, live := c.workers[ev.w]; !live {
		return nil // late event from an already-buried worker
	}
	if ev.err != nil {
		return c.handleDeath(ev.w, ev.err)
	}
	ev.w.hb.Beat()
	switch ev.kind {
	case KindReady, KindHeartbeat:
		return nil
	case KindTaskDone:
		var res TaskResult
		if err := decodeMsg(ev.payload, &res); err != nil {
			return c.handleDeath(ev.w, err)
		}
		return c.completeTask(ev.w, res.Seq)
	case KindTaskFailed:
		var tf TaskFailed
		if err := decodeMsg(ev.payload, &tf); err != nil {
			return c.handleDeath(ev.w, err)
		}
		t := c.release(ev.w, tf.Seq)
		if t == nil {
			return nil
		}
		return c.requeue(t, fmt.Errorf("%s", tf.Err))
	default:
		return c.handleDeath(ev.w, fmt.Errorf("unexpected frame %s", ev.kind))
	}
}

// release ends the lease seq holds on w and returns its task, or nil for a
// stale frame from a revoked lease.
func (c *coordinator) release(w *workerProc, seq uint64) *task {
	l := c.leases[seq]
	if l == nil || l.w != w {
		return nil
	}
	delete(c.leases, seq)
	w.busy = nil
	return l.t
}

// completeTask journals and records a finished task. The completion fault
// point sits before the journal write: a crash there re-runs the task on
// restart (at-least-once), which is safe because task outputs are
// deterministic files.
func (c *coordinator) completeTask(w *workerProc, seq uint64) error {
	t := c.release(w, seq)
	if t == nil {
		return nil
	}
	if err := faultCheck(faultinject.PointMrxComplete); err != nil {
		return fmt.Errorf("mrx: complete: %w", err)
	}
	t.done = true
	return c.j.record(t.index)
}

// requeue schedules a task for re-execution with capped-exponential
// backoff, failing the job once the retry budget is exhausted.
func (c *coordinator) requeue(t *task, cause error) error {
	t.attempts++
	if t.attempts > c.opts.MaxTaskRetries {
		return fmt.Errorf("mrx: task %d failed after %d attempts: %w",
			t.index, t.attempts, cause)
	}
	delay := c.opts.RetryBase << (t.attempts - 1)
	if delay > c.opts.RetryCap {
		delay = c.opts.RetryCap
	}
	t.notBefore = time.Now().Add(delay)
	c.stats.TasksReexecuted++
	c.logf("mrx: requeue task %d (attempt %d, backoff %v): %v",
		t.index, t.attempts, delay, cause)
	return nil
}

// handleDeath buries a dead worker: revoke its lease, requeue its task,
// and start a replacement while the respawn budget lasts. The job fails
// only when no workers remain and none can be started.
func (c *coordinator) handleDeath(w *workerProc, cause error) error {
	delete(c.workers, w)
	w.hb.Done()
	w.kill()
	w.stdin.Close()
	c.stats.WorkerDeaths++
	if tail := w.stderr.String(); tail != "" {
		c.logf("mrx: worker %d stderr tail: %s", w.index, tail)
	}
	c.logf("mrx: worker %d died: %v", w.index, cause)
	if t := w.busy; t != nil {
		delete(c.leases, w.seq)
		w.busy = nil
		if err := c.requeue(t, fmt.Errorf("worker %d died: %v", w.index, cause)); err != nil {
			return err
		}
	}
	if len(c.workers) < c.opts.Workers && c.stats.Respawns < c.opts.MaxRespawns {
		if _, err := c.spawnWorker(); err != nil {
			c.logf("mrx: respawn failed: %v", err)
		} else {
			c.stats.Respawns++
		}
	}
	if len(c.workers) == 0 {
		return fmt.Errorf("mrx: all workers dead (last: worker %d: %v) and respawn budget exhausted",
			w.index, cause)
	}
	return nil
}

// spawnWorker execs one worker process, sends its Hello, and starts its
// reader goroutine. Worker indices are never reused — including across
// respawns — so env-transported fault schedules targeting one index fire
// in exactly one process lifetime.
func (c *coordinator) spawnWorker() (*workerProc, error) {
	if err := faultCheck(faultinject.PointMrxSpawn); err != nil {
		return nil, fmt.Errorf("mrx: spawn: %w", err)
	}
	idx := c.nextIndex
	c.nextIndex++
	cmd := exec.Command(c.opts.Command[0], c.opts.Command[1:]...)
	cmd.Env = append(os.Environ(), c.opts.Env...)
	cmd.Env = append(cmd.Env,
		EnvWorker+"=1",
		fmt.Sprintf("%s=%d", EnvWorkerIndex, idx))
	tail := &tailBuffer{}
	cmd.Stderr = tail
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("mrx: spawn: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("mrx: spawn: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("mrx: spawn: %w", err)
	}
	w := &workerProc{index: idx, cmd: cmd, stdin: stdin, stderr: tail}
	hello := Hello{
		Job:         c.opts.Job,
		Params:      c.opts.Params,
		HeartbeatMS: c.opts.HeartbeatEvery.Milliseconds(),
	}
	payload, err := encodeMsg(&hello)
	if err != nil {
		w.kill()
		cmd.Wait()
		return nil, err
	}
	if err := WriteFrame(stdin, KindHello, payload); err != nil {
		w.kill()
		cmd.Wait()
		return nil, fmt.Errorf("mrx: spawn: send hello: %w", err)
	}
	// The watchdog's cancel is a kill: the reader then observes EOF and
	// delivers the death event, which requeues the worker's lease.
	w.hb = c.wd.Register(fmt.Sprintf("mrx-worker-%d", idx), w.kill)
	c.workers[w] = struct{}{}
	c.readers.Add(1)
	//bw:guarded per-worker reader; joined via c.readers in Run's deferred cleanup
	go c.readWorker(w, stdout)
	c.logf("mrx: spawned worker %d (pid %d)", idx, cmd.Process.Pid)
	return w, nil
}

// readWorker forwards a worker's frames to the event loop until the pipe
// breaks, then reaps the process and delivers the death notice.
func (c *coordinator) readWorker(w *workerProc, r io.Reader) {
	defer c.readers.Done()
	for {
		kind, payload, err := ReadFrame(r)
		if err != nil {
			waitErr := w.cmd.Wait()
			cause := err
			if err == io.EOF {
				cause = fmt.Errorf("pipe closed (exit: %v)", waitErr)
			}
			select {
			case c.events <- event{w: w, err: cause}:
			case <-c.stopDrain:
			}
			return
		}
		select {
		case c.events <- event{w: w, kind: kind, payload: payload}:
		case <-c.stopDrain:
			return
		}
	}
}

// shutdownWorkers asks every worker to exit cleanly; the deferred cleanup
// in Run reaps stragglers.
func (c *coordinator) shutdownWorkers() {
	for w := range c.workers {
		payload, err := encodeMsg(&Heartbeat{})
		if err == nil {
			WriteFrame(w.stdin, KindShutdown, payload)
		}
		w.stdin.Close()
	}
}

// tailBuffer keeps the first chunk of a worker's stderr for post-mortem
// logging without unbounded growth.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailBufferCap = 4 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if room := tailBufferCap - len(t.buf); room > 0 {
		if len(p) < room {
			room = len(p)
		}
		t.buf = append(t.buf, p[:room]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
