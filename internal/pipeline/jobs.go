package pipeline

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"fmt"

	"baywatch/internal/core"
	"baywatch/internal/guard"
	"baywatch/internal/ingest"
	"baywatch/internal/mapreduce"
	"baywatch/internal/proxylog"
	"baywatch/internal/timeseries"
)

// PairEvent is the source-agnostic input of data extraction: one observed
// interaction of one communication pair (see ingest.Event).
type PairEvent = ingest.Event

// TruncatedPair records one communication pair whose event volume
// exceeded the admission cap (guard.Config.MaxEventsPerPair) and was
// truncated to its earliest Kept events. Truncation is load shedding with
// explicit accounting: the pair still flows through the pipeline on the
// kept prefix, and the run is marked Degraded.
type TruncatedPair = ingest.Truncation

// pairKey identifies a communication pair in the analysis core's maps: a
// comparable struct, not the concatenated "src|dst" string, so endpoints
// containing the separator byte can never collide into one entry.
type pairKey struct {
	Src, Dst string
}

// jobKey is a summary's key in the MapReduce jobs and their fault points:
// "<src>|<dst>", the paper's H(s,d) input. A separator collision only
// shares a partition, never a call.
func jobKey(as *timeseries.ActivitySummary) string { return as.Source + "|" + as.Destination }

// ExtractSummaries is data extraction (Sect. VII-A) over a materialized
// event slice: the summaries and truncation records, sorted by pair, that
// Run's front half would hand the analysis core. maxEvents > 0 caps each
// pair at its earliest maxEvents events; <= 0 means uncapped.
func ExtractSummaries(ctx context.Context, events []PairEvent, scale int64, maxEvents int) ([]*timeseries.ActivitySummary, []TruncatedPair, error) {
	ext, err := ingest.IngestEvents(ctx, len(events), func(i int) PairEvent { return events[i] },
		ingest.Config{Scale: scale, MaxEventsPerPair: maxEvents})
	if err != nil {
		return nil, nil, err
	}
	return ext.Summaries, ext.Truncated, nil
}

// recordEvent converts one proxy record to a pair event, resolving the
// source through the DHCP correlation when corr is non-nil (device MAC,
// "ip:<addr>" fallback) and using the raw client IP otherwise.
func recordEvent(r *proxylog.Record, corr *proxylog.Correlator) PairEvent {
	src := r.ClientIP
	if corr != nil {
		src = corr.SourceID(r)
	}
	return PairEvent{Source: src, Destination: r.Host, Timestamp: r.Timestamp, Path: r.Path}
}

// RecordEvents converts proxy records to pair events (see recordEvent).
func RecordEvents(records []*proxylog.Record, corr *proxylog.Correlator) []PairEvent {
	events := make([]PairEvent, len(records))
	for i, r := range records {
		events[i] = recordEvent(r, corr)
	}
	return events
}

// Detection pairs a summary with its periodicity result. When Err is
// non-nil the pair's detection failed (error or recovered panic): Result
// is nil and the pipeline isolates the candidate under StageError instead
// of aborting the run.
type Detection struct {
	Summary *timeseries.ActivitySummary
	Result  *core.Result
	Err     error
}

// safeMerge merges two summaries of one pair, converting panics into
// errors so a pathological history cannot take down the stage.
func safeMerge(a, b *timeseries.ActivitySummary) (m *timeseries.ActivitySummary, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("detect panic: %v", r)
		}
	}()
	return timeseries.Merge(a, b)
}

// safeDetectOne runs detection for one pair, converting panics into errors
// so a single pathological history cannot take down the job. thrMemo
// shares permutation thresholds across pairs with the same null
// distribution; results are bit-identical with or without it.
func safeDetectOne(det *core.Detector, thrMemo *core.ThresholdMemo, as *timeseries.ActivitySummary) (d Detection) {
	d = Detection{Summary: as}
	defer func() {
		if r := recover(); r != nil {
			d.Err = fmt.Errorf("detect panic: %v", r)
		}
	}()
	if ferr := faultCheck(faultinject.PointPipelineDetect, jobKey(as)); ferr != nil {
		d.Err = ferr
		return d
	}
	res, derr := det.DetectWithThresholds(as, thrMemo)
	if derr != nil {
		d.Err = derr
		return d
	}
	d.Result = res
	return d
}

// detectBeacons is the beaconing-detection job (Sect. VII-D) the analysis
// core runs over the pairs that need detection: one summary per pair in,
// one Detection per pair out, in no particular order. Pairs whose
// detection failed come back with Err set rather than failing the job.
// g.CandidateTimeout > 0 bounds each pair's detection in wall-clock time:
// an overrun parks the pair as a Detection with Err wrapping
// guard.ErrTimeout instead of wedging its worker. g.FailureBudget is the
// job's failure budget.
func detectBeacons(ctx context.Context, summaries []*timeseries.ActivitySummary, detCfg core.Config, g guard.Config, thrMemo *core.ThresholdMemo) ([]Detection, mapreduce.Counters, error) {
	det := core.NewDetector(detCfg)
	// The job runs each call inline: the detection's one bound is the
	// RunBounded below, which parks an overrun instead of charging it to
	// the failure budget.
	jobCfg := mapreduce.JobConfig{Name: "beaconing-detection", MaxFailed: g.FailureBudget}
	job := mapreduce.NewJob(jobCfg, jobKey, func(as *timeseries.ActivitySummary) (Detection, error) {
		if g.CandidateTimeout <= 0 {
			return safeDetectOne(det, thrMemo, as), nil
		}
		// The detection runs on its own goroutine so an overrun can be
		// abandoned; safeDetectOne communicates only through its return
		// value and the mutex-guarded threshold memo, making abandonment
		// race-free.
		d, err := guard.RunBounded(ctx, g.CandidateTimeout, func() (Detection, error) {
			return safeDetectOne(det, thrMemo, as), nil
		})
		if errors.Is(err, guard.ErrTimeout) {
			// Park the pair instead of failing it: the pipeline isolates
			// it under StageError and degrades the run.
			return Detection{Summary: as, Err: err}, nil
		}
		return d, err
	})
	res, err := job.Run(ctx, summaries)
	if err != nil {
		return nil, mapreduce.Counters{}, err
	}
	return res.Outputs, res.Counters, nil
}

// RescaleAndMerge is the rescaling/merging job of Sect. VII-B: it rescales
// each summary to the new (coarser) scale and merges the summaries of each
// pair, so long time ranges are analyzable without reprocessing raw logs.
// A pair's summaries merge in input order, and the merged pairs come back
// in the job's partition order, whatever the parallelism. g bounds the
// job: StageTimeout the whole job, and CandidateTimeout each pair's call
// (mapreduce.JobConfig.TaskTimeout). There is no candidate to park, so an
// overrun pair is dropped within FailureBudget; failed counts the pairs
// dropped.
func RescaleAndMerge(ctx context.Context, summaries []*timeseries.ActivitySummary, newScale int64, g guard.Config) (merged []*timeseries.ActivitySummary, failed int64, err error) {

	idx := make(map[pairKey]int)
	var groups [][]*timeseries.ActivitySummary
	for _, as := range summaries {
		k := pairKey{Src: as.Source, Dst: as.Destination}
		i, seen := idx[k]
		if !seen {
			i = len(groups)
			idx[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], as)
	}

	jobCfg := mapreduce.JobConfig{Name: "rescale-merge", TaskTimeout: g.CandidateTimeout, MaxFailed: g.FailureBudget}
	job := mapreduce.NewJob(jobCfg,
		func(group []*timeseries.ActivitySummary) string { return jobKey(group[0]) },
		func(group []*timeseries.ActivitySummary) (*timeseries.ActivitySummary, error) {
			var out *timeseries.ActivitySummary
			for _, as := range group {
				rescaled, err := as.Rescale(newScale)
				if err != nil {
					return nil, err
				}
				if out, err = timeseries.Merge(out, rescaled); err != nil {
					return nil, err
				}
			}
			return out, nil
		})
	jobCtx, done := stageCtx(ctx, g, "rescale-merge")
	defer done()
	res, err := job.Run(jobCtx, groups)
	if err != nil {
		return nil, 0, err
	}
	return res.Outputs, res.Counters.Failed, nil
}
