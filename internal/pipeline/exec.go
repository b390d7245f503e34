package pipeline

// Distributed beaconing detection. The detect stage — the pipeline's CPU
// hot spot — can run its MapReduce job in exec'd worker OS processes via
// the multi-process executor (internal/mrx + mapreduce.RunExec). The
// coordinator serializes the job's construction recipe (detectParams)
// into the Hello; each worker process rebuilds an identical job from it,
// so both sides run the same per-pair code and the distributed run is
// bit-identical to the in-process engine. Enabled through Config.Exec;
// when spawning workers fails the stage degrades to the in-process path
// unless Config.Exec.DisableFallback is set.

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/faultinject"
	"baywatch/internal/mapreduce"
	"baywatch/internal/timeseries"
)

// detectJobName is the detect job's name in the mrx job registry. It
// deliberately shares its value with the detect stage's fault point, so
// registry entries and injected faults line up in logs.
const detectJobName = string(faultinject.PointPipelineDetect)

func init() {
	mapreduce.RegisterExec(detectJobName, buildDetectJob)
}

// detectParams is the construction recipe the coordinator ships to
// workers. Coordinator and worker must build identical jobs from it or
// the differential guarantee (distributed == in-process) is void. Of the
// job's config a worker reads only the failure budget: the coordinator
// partitions the pairs, and the watchdog and TaskTimeout stay with it — a
// worker runs every call inline, and its liveness is the coordinator's
// heartbeat.
type detectParams struct {
	Detector         core.Config
	MaxFailed        int
	CandidateTimeout time.Duration
	MaxInFlight      int
}

func encodeDetectParams(p detectParams) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("pipeline: encode detect params: %w", err)
	}
	return buf.Bytes(), nil
}

// buildDetectJob is the worker-side factory: it rebuilds the detect job
// from the coordinator's params blob.
func buildDetectJob(params []byte) (*mapreduce.Job[*timeseries.ActivitySummary, Detection], error) {
	var p detectParams
	if err := gob.NewDecoder(bytes.NewReader(params)).Decode(&p); err != nil {
		return nil, fmt.Errorf("pipeline: decode detect params: %w", err)
	}
	// A worker process owns its whole lifetime: the coordinator cancels
	// work by revoking the task lease and killing the process, so there is
	// no caller context to thread through. The threshold memo is
	// worker-local (a memo hit is bit-identical to a cold computation, so
	// per-worker caches never diverge from the in-process run).
	ctx := context.Background() //bw:guarded worker-process root; cancellation is the coordinator killing the process
	jobCfg := mapreduce.JobConfig{MaxFailed: p.MaxFailed}
	return detectJob(ctx, core.NewDetector(p.Detector), jobCfg, p.CandidateTimeout, p.MaxInFlight, core.NewThresholdMemo(0)), nil
}

// detectionWire is Detection's gob shape. Err is an interface value the
// stdlib gob codec cannot round-trip, so it crosses the process boundary
// flattened to its message — the pipeline only branches on Err != nil and
// reports Err.Error(), both of which survive the flattening.
type detectionWire struct {
	Summary *timeseries.ActivitySummary
	Result  *core.Result
	Err     string
	HasErr  bool
}

// GobEncode implements gob.GobEncoder; see detectionWire.
func (d Detection) GobEncode() ([]byte, error) {
	w := detectionWire{Summary: d.Summary, Result: d.Result}
	if d.Err != nil {
		w.Err, w.HasErr = d.Err.Error(), true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder; see detectionWire.
func (d *Detection) GobDecode(data []byte) error {
	var w detectionWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	d.Summary, d.Result, d.Err = w.Summary, w.Result, nil
	if w.HasErr {
		d.Err = errors.New(w.Err)
	}
	return nil
}
