package mrx

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Wire messages. Each frame kind carries exactly one of these gob-encoded
// payloads; both ends decode strictly by the frame's kind, never by
// sniffing the payload.

// Hello is the coordinator's first frame to a freshly exec'd worker. It
// names the registered job the worker must instantiate and carries the
// job's opaque parameter blob (decoded by the RunnerFactory).
type Hello struct {
	// Job is the RegisterJob name.
	Job string
	// Params is the job's serialized construction parameters.
	Params []byte
	// HeartbeatMS is how often the worker must heartbeat while a task
	// runs, in milliseconds.
	HeartbeatMS int64
}

// TaskSpec assigns one task to a worker.
type TaskSpec struct {
	// Seq is the coordinator's task sequence number; the worker echoes it
	// in TaskResult/TaskFailed so late frames from a revoked lease are
	// discarded rather than misattributed.
	Seq uint64
	// Index is the task's position in Options.Inputs.
	Index int
	// Input is the task's input file; Output is where the worker writes
	// the task's result.
	Input  string
	Output string
}

// TaskResult reports a completed task: its output file is written.
type TaskResult struct {
	// Seq echoes the TaskSpec.
	Seq uint64
}

// TaskFailed reports a task that failed without killing the worker.
type TaskFailed struct {
	// Seq echoes the TaskSpec.
	Seq uint64
	// Err is the failure message.
	Err string
}

// Heartbeat is the worker's periodic liveness proof, busy or idle.
type Heartbeat struct {
	// Seq is the task the worker is working on (0 when idle).
	Seq uint64
}

// encodeMsg gob-encodes one wire message.
func encodeMsg(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("mrx: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// decodeMsg gob-decodes one wire message into v.
func decodeMsg(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("mrx: decode %T: %w", v, err)
	}
	return nil
}
