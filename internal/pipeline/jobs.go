package pipeline

import (
	"baywatch/internal/faultinject"

	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/guard"
	"baywatch/internal/ingest"
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

// jobKey is a summary's key in the per-pair fault points and in the
// rescale-merge's error: "<src>|<dst>". It only names a pair; the
// analysis core's maps key on pairKey, so a separator collision never
// shares a call.
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
// so a single pathological history cannot take down the run. thrMemo
// shares permutation thresholds across pairs with the same null
// distribution; results are bit-identical with or without it.
func safeDetectOne(det *core.Detector, thrMemo *core.ThresholdMemo, as *timeseries.ActivitySummary) (d Detection) {
	d = Detection{Summary: as}
	defer func() {
		if r := recover(); r != nil {
			d.Err = fmt.Errorf("detect panic: %v", r)
		}
	}()
	if ferr := faultinject.Check(faultinject.PointPipelineDetect, jobKey(as)); ferr != nil {
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

// eachPair is the analysis core's per-pair loop: it calls call(i) for
// every i in [0, n) and returns the outcomes by index. Up to
// min(GOMAXPROCS, n) workers take the next index from a shared counter,
// and each call runs under guard.RunBounded(ctx, timeout, ...), so a call
// that overruns timeout leaves a zero value and an error wrapping
// guard.ErrTimeout at its index. A cancelled ctx stops the workers, and
// its cause is returned.
func eachPair[T any](ctx context.Context, timeout time.Duration, n int, call func(i int) (T, error)) ([]T, []error, error) {
	outs, errs := make([]T, n), make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && ctx.Err() == nil; i = int(next.Add(1) - 1) {
				outs[i], errs[i] = guard.RunBounded(ctx, timeout, func() (T, error) { return call(i) })
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, nil, err
	}
	return outs, errs, nil
}

// detectBeacons is beaconing detection (Sect. VII-D) over the pairs that
// need it: one Detection per summary, in input order. A pair whose
// detection fails (error or recovered panic) comes back with Err set
// rather than failing the step. g.CandidateTimeout > 0 bounds each
// pair's detection in wall-clock time: an overrun parks the pair as a
// Detection with Err wrapping guard.ErrTimeout instead of wedging its
// worker. safeDetectOne communicates only through its return value and
// the mutex-guarded threshold memo, making abandonment race-free.
func detectBeacons(ctx context.Context, summaries []*timeseries.ActivitySummary, detCfg core.Config, g guard.Config, thrMemo *core.ThresholdMemo) ([]Detection, error) {
	det := core.NewDetector(detCfg)
	dets, errs, err := eachPair(ctx, g.CandidateTimeout, len(summaries), func(i int) (Detection, error) {
		return safeDetectOne(det, thrMemo, summaries[i]), nil
	})
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			// Park the overrun pair: the pipeline isolates it under
			// StageError and degrades the run.
			dets[i] = Detection{Summary: summaries[i], Err: err}
		}
	}
	return dets, nil
}

// RescaleAndMerge is the rescaling/merging step of Sect. VII-B: it
// rescales each summary to the new (coarser) scale and merges the
// summaries of each pair, so long time ranges are analyzable without
// reprocessing raw logs. A pair's summaries merge in input order, and
// the merged pairs come back in the order of their first summary,
// whatever the parallelism. g bounds the step: StageTimeout the whole
// step, and CandidateTimeout each pair's call. There is no candidate to
// park, so a pair whose call fails, panics or overruns is dropped within
// FailureBudget and counted in failed; past the budget the first such
// pair, in pair order, fails the step.
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

	stepCtx, done := stageCtx(ctx, g, "rescale-merge")
	defer done()
	outs, errs, err := eachPair(stepCtx, g.CandidateTimeout, len(groups), func(i int) (*timeseries.ActivitySummary, error) {
		return rescaleMergePair(groups[i], newScale)
	})
	if err != nil {
		return nil, 0, err
	}
	merged = make([]*timeseries.ActivitySummary, 0, len(groups))
	for i, err := range errs {
		if err == nil {
			merged = append(merged, outs[i])
			continue
		}
		if failed++; failed > int64(g.FailureBudget) {
			return nil, 0, fmt.Errorf("rescale-merge: pair %q: %w", jobKey(groups[i][0]), err)
		}
	}
	return merged, failed, nil
}

// rescaleMergePair rescales one pair's summaries to newScale and merges
// them in order, behind the pipeline.rescale fault point. A panic becomes
// the pair's error.
func rescaleMergePair(group []*timeseries.ActivitySummary, newScale int64) (out *timeseries.ActivitySummary, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("rescale-merge panic: %v", r)
		}
	}()
	if err := faultinject.Check(faultinject.PointPipelineRescale, jobKey(group[0])); err != nil {
		return nil, err
	}
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
}
