// Package mrx is the multi-process job executor: a coordinator that runs
// a job's tasks — one input file in, one output file out — in exec'd
// child OS processes, surviving worker death the way the paper's Hadoop
// deployment survives task failure — by re-executing the dead worker's
// leased tasks on surviving workers (Sect. V runs BAYWATCH on a 13-node
// cluster; this package makes -mr-workers mean machine-level processes,
// not just goroutines).
//
// The package is deliberately untyped: it moves opaque task specs and
// file paths. The typed layer — the partition loop and the record codec
// of task files — lives in internal/mapreduce (exec.go), which registers
// per-job worker-side runners with RegisterJob and drives the coordinator
// with Run. Layering:
//
//	coordinator process                    worker process (exec'd)
//	┌──────────────────────────┐  frames   ┌──────────────────────────┐
//	│ mapreduce.Job.RunExec    │──────────▶│ mrx.WorkerMain           │
//	│  └─ mrx.Run (leases,     │  stdin/   │  └─ registered Runner    │
//	│      journal, watchdog)  │◀──────────│      (partition loop)    │
//	└──────────────────────────┘  stdout   └──────────────────────────┘
//	        │ durable handoff: checksummed input and output files │
//	        └──────────────────── shared scratch dir ──────────────┘
//
// Fault model (DESIGN.md 5g): every task is leased to exactly one worker;
// a worker proves liveness by the frames it sends (heartbeats during long
// tasks); pipe EOF, a non-zero exit, or missed heartbeats (guard.Watchdog)
// revoke the worker's leases and requeue its tasks with capped-exponential
// backoff; the coordinator journals completed tasks write-ahead so a
// restarted coordinator resumes without rerunning them.
package mrx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout (all little-endian):
//
//	magic  uint32  "BWFR"
//	kind   uint8   message kind
//	length uint32  payload byte count
//	payload        length bytes
//	crc    uint32  CRC32-IEEE over kind byte + payload
//
// The CRC covers the kind so a flipped kind byte cannot reinterpret a
// valid payload, and the length so a truncated stream is detected before
// gob ever sees it.
const (
	frameMagic = 0x52465742 // "BWFR" little-endian
	frameHdr   = 9          // magic + kind + length
	// MaxFramePayload bounds one frame's payload. Task specs and results
	// are file paths — kilobytes — so anything near the cap
	// is corruption, not data.
	MaxFramePayload = 16 << 20
)

// ErrFrame reports a malformed frame: bad magic, oversized or mismatched
// length, or checksum failure. A stream that yields ErrFrame is
// unrecoverable (framing is lost); the peer is treated as dead.
var ErrFrame = errors.New("mrx: bad frame")

// Kind identifies a frame's message type.
type Kind uint8

// Frame kinds. Coordinator → worker: hello, task, shutdown. Worker →
// coordinator: ready, done, failed, heartbeat.
const (
	KindHello Kind = iota + 1
	KindTask
	KindShutdown
	KindReady
	KindTaskDone
	KindTaskFailed
	KindHeartbeat
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindTask:
		return "task"
	case KindShutdown:
		return "shutdown"
	case KindReady:
		return "ready"
	case KindTaskDone:
		return "task-done"
	case KindTaskFailed:
		return "task-failed"
	case KindHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// WriteFrame writes one frame. The caller serializes concurrent writers
// (both ends write frames from more than one goroutine).
func WriteFrame(w io.Writer, kind Kind, payload []byte) error {
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("%w: payload %d bytes exceeds cap %d", ErrFrame, len(payload), MaxFramePayload)
	}
	var hdr [frameHdr]byte
	binary.LittleEndian.PutUint32(hdr[0:], frameMagic)
	hdr[4] = byte(kind)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:5])
	crc.Write(payload)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], crc.Sum32())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	_, err := w.Write(foot[:])
	return err
}

// ReadFrame reads and validates one frame. io.EOF is returned untouched
// at a clean frame boundary (the peer closed the stream between frames);
// any mid-frame truncation or validation failure wraps ErrFrame, except a
// plain read error from r, which is returned as-is.
//
// The payload buffer grows as bytes actually arrive (in bounded chunks),
// so a corrupt length field can never make the decoder allocate more than
// the stream delivers — a requirement fuzzed by FuzzFrameDecode.
func ReadFrame(r io.Reader) (Kind, []byte, error) {
	var hdr [frameHdr]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: truncated header", ErrFrame)
		}
		return 0, nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %08x", ErrFrame, binary.LittleEndian.Uint32(hdr[0:]))
	}
	kind := Kind(hdr[4])
	length := binary.LittleEndian.Uint32(hdr[5:])
	if length > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: declared payload %d bytes exceeds cap %d", ErrFrame, length, MaxFramePayload)
	}
	payload, err := readBounded(r, int(length))
	if err != nil {
		return 0, nil, err
	}
	var foot [4]byte
	if _, err := io.ReadFull(r, foot[:]); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: truncated checksum", ErrFrame)
		}
		return 0, nil, err
	}
	crc := crc32.NewIEEE()
	crc.Write(hdr[4:5])
	crc.Write(payload)
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(foot[:]); got != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrFrame, got, want)
	}
	return kind, payload, nil
}

// readBounded reads exactly n bytes, growing the buffer chunk by chunk so
// a hostile declared length allocates no more than the stream provides
// (plus one chunk).
func readBounded(r io.Reader, n int) ([]byte, error) {
	const chunk = 64 << 10
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		step := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, step)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrFrame, start, n)
			}
			return nil, err
		}
	}
	return buf, nil
}
