package pipeline

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"fmt"
	"sort"
	"time"

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

// pairKey is the shuffle key of the summary-level jobs (detection,
// rescale/merge): a comparable struct, not the concatenated "src|dst"
// string, so endpoints containing the separator byte can never collide
// into one group. (Event-level extraction goes further and uses interned
// ingest.PairID keys; summary-level jobs group far fewer items, so the
// plain strings are fine there.) The fields are exported because the
// distributed detect job gob-encodes keys into spill files; the partition
// hash renders the key through fmt's %v, which prints values only, so
// field names never move a partition assignment.
type pairKey struct {
	Src, Dst string
}

// faultKey renders the key in the "<src>|<dst>" form the fault-injection
// points and error messages use.
func (k pairKey) faultKey() string { return k.Src + "|" + k.Dst }

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

// detectKey is the detect job's shuffle key: the analysis bucket (series
// length and event count after capping/decimation, see core.Detector.
// BucketOf) plus a small pair-hash slot. Keying by bucket instead of pair
// schedules same-shape series into the same reduce group, where they run
// back-to-back through one cached FFT plan and share memoized permutation
// thresholds; the slot spreads one dominant bucket across reducers so
// batching never serializes the stage. Fields are exported because the
// distributed detect job gob-encodes keys into spill files.
type detectKey struct {
	Len    int
	Events int
	Slot   uint8
}

// detectSlots is the number of sub-bucket slots; 16 keeps plenty of
// parallelism for a skewed bucket while leaving groups large enough to
// amortize plan and threshold reuse.
const detectSlots = 16

// detectSlot assigns a pair to a slot by FNV-1a over "src|dst".
func detectSlot(src, dst string) uint8 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= 1099511628211
	}
	h ^= '|'
	h *= 1099511628211
	for i := 0; i < len(dst); i++ {
		h ^= uint64(dst[i])
		h *= 1099511628211
	}
	return uint8(h % detectSlots)
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

// premergePairs merges duplicate summaries of the same pair (e.g. from
// multiple input files) ahead of the detect job, so the job's bucket
// grouping sees exactly one summary per pair. The returned slice preserves
// first-seen order; pairs whose merge failed come back as parked
// Detections (Summary = the pair's first summary, matching the old
// in-reduce merge) and are excluded from detection.
func premergePairs(summaries []*timeseries.ActivitySummary) ([]*timeseries.ActivitySummary, []Detection) {
	idx := make(map[pairKey]int, len(summaries))
	merged := make([]*timeseries.ActivitySummary, 0, len(summaries))
	var firsts []*timeseries.ActivitySummary
	var failed []Detection
	for _, as := range summaries {
		key := pairKey{Src: as.Source, Dst: as.Destination}
		i, seen := idx[key]
		if !seen {
			idx[key] = len(merged)
			merged = append(merged, as)
			firsts = append(firsts, as)
			continue
		}
		if merged[i] == nil {
			continue // pair already failed; mirror the old single-Detection-per-pair behavior
		}
		m, err := safeMerge(merged[i], as)
		if err != nil {
			failed = append(failed, Detection{Summary: firsts[i], Err: err})
			merged[i] = nil
			continue
		}
		merged[i] = m
	}
	out := merged[:0]
	for _, as := range merged {
		if as != nil {
			out = append(out, as)
		}
	}
	return out, failed
}

// safeDetectOne runs detection for one pre-merged pair, converting panics
// into errors so a single pathological history cannot take down the job.
// thrMemo shares permutation thresholds across same-bucket pairs; results
// are bit-identical with or without it.
func safeDetectOne(det *core.Detector, thrMemo *core.ThresholdMemo, as *timeseries.ActivitySummary) (d Detection) {
	d = Detection{Summary: as}
	defer func() {
		if r := recover(); r != nil {
			d.Err = fmt.Errorf("detect panic: %v", r)
		}
	}()
	if ferr := faultCheck(faultinject.PointPipelineDetect, as.Source+"|"+as.Destination); ferr != nil {
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

// sortDetections orders detections canonically by (source, destination),
// whatever way the bucket scheduling distributed the work.
func sortDetections(ds []Detection) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Summary, ds[j].Summary
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Destination < b.Destination
	})
}

// DetectBeacons is the beaconing-detection MapReduce job (Sect. VII-D):
// duplicate summaries of one pair pre-merge at the coordinator, MAP groups
// pairs by analysis bucket (batch scheduling, see detectKey), and REDUCE
// runs the three-step detection on every pair's request history with
// permutation thresholds memoized per bucket. All pairs are returned with
// their results (periodic or not), sorted by pair, so downstream stages can
// account for the funnel; pairs whose detection failed come back with Err
// set rather than failing the job.
func DetectBeacons(ctx context.Context, summaries []*timeseries.ActivitySummary, det *core.Detector, mrCfg mapreduce.JobConfig) ([]Detection, error) {
	merged, failed := premergePairs(summaries)
	res, err := detectJob(ctx, det, mrCfg, 0, 0, core.NewThresholdMemo(0)).Run(ctx, merged)
	if err != nil {
		return nil, err
	}
	out := append(res.Outputs, failed...)
	sortDetections(out)
	return out, nil
}

// detectBeacons is the guarded beaconing-detection job the analysis core
// runs over the pairs that need detection (one summary per pair, results
// in no particular order): candidateTimeout > 0 bounds each pair's
// detection in wall-clock time (an overrun parks the pair as a Detection
// with Err wrapping guard.ErrTimeout instead of wedging the reducer), and
// maxInFlight > 0 bounds the number of pairs admitted to detection
// concurrently. When ec enables the multi-process executor, the job runs
// distributed across exec'd workers (see exec.go) and takes the
// detector's Config rather than a live Detector so workers can rebuild
// it; each worker keeps its own threshold memo, which is harmless for
// identity (a memo hit equals a cold computation bit for bit) and still
// captures the bucket locality of its task's partition.
func detectBeacons(ctx context.Context, summaries []*timeseries.ActivitySummary, detCfg core.Config, mrCfg mapreduce.JobConfig, ec mapreduce.ExecConfig, candidateTimeout time.Duration, maxInFlight int, thrMemo *core.ThresholdMemo) ([]Detection, mapreduce.Counters, error) {
	job := detectJob(ctx, core.NewDetector(detCfg), mrCfg, candidateTimeout, maxInFlight, thrMemo)
	var res *mapreduce.Result[Detection]
	var err error
	if ec.Enabled() {
		params, perr := encodeDetectParams(detectParams{
			Detector:         detCfg,
			MR:               wireJobConfig(mrCfg),
			CandidateTimeout: candidateTimeout,
			MaxInFlight:      maxInFlight,
		})
		if perr != nil {
			return nil, mapreduce.Counters{}, perr
		}
		res, err = job.RunExec(ctx, detectJobName, params, ec, summaries)
	} else {
		res, err = job.Run(ctx, summaries)
	}
	if err != nil {
		return nil, mapreduce.Counters{}, err
	}
	return res.Outputs, res.Counters, nil
}

// detectJob builds the beaconing-detection MapReduce job around a live
// detector. Both execution paths share it: the in-process engine runs it
// directly, and worker processes rebuild it from detectParams (exec.go,
// with a fresh worker-local threshold memo). Inputs must hold one summary
// per pair; the reduce group is a bucket of same-shape pairs, run in pair
// order with per-pair admission, timeout and fault isolation.
func detectJob(ctx context.Context, det *core.Detector, mrCfg mapreduce.JobConfig, candidateTimeout time.Duration, maxInFlight int, thrMemo *core.ThresholdMemo) *mapreduce.Job[*timeseries.ActivitySummary, detectKey, *timeseries.ActivitySummary, Detection] {
	mrCfg.Name = "beaconing-detection"
	sem := guard.NewSemaphore(maxInFlight)
	detectOne := func(as *timeseries.ActivitySummary, emit func(Detection)) error {
		if err := sem.Acquire(ctx); err != nil {
			return err
		}
		defer sem.Release()
		if candidateTimeout <= 0 {
			emit(safeDetectOne(det, thrMemo, as))
			return nil
		}
		// The detection runs on its own goroutine so an overrun can be
		// abandoned; safeDetectOne communicates only through its return
		// value and the mutex-guarded threshold memo, making abandonment
		// race-free.
		d, err := guard.RunBounded(ctx, candidateTimeout, func() (Detection, error) {
			return safeDetectOne(det, thrMemo, as), nil
		})
		if err != nil {
			if errors.Is(err, guard.ErrTimeout) {
				// Park the pair instead of failing the key: the pipeline
				// isolates it under StageError and degrades the run.
				emit(Detection{Summary: as, Err: err})
				return nil
			}
			return err
		}
		emit(d)
		return nil
	}
	return mapreduce.NewJob[*timeseries.ActivitySummary, detectKey, *timeseries.ActivitySummary, Detection](
		mrCfg,
		func(as *timeseries.ActivitySummary, emit mapreduce.Emitter[detectKey, *timeseries.ActivitySummary]) error {
			b := det.BucketOf(as)
			emit(detectKey{Len: b.SeriesLen, Events: b.Events, Slot: detectSlot(as.Source, as.Destination)}, as)
			return nil
		},
		func(key detectKey, list []*timeseries.ActivitySummary, emit func(Detection)) error {
			// Deterministic within-bucket order: process the group's pairs
			// sorted by (src, dst) regardless of emission order.
			sort.Slice(list, func(i, j int) bool {
				if list[i].Source != list[j].Source {
					return list[i].Source < list[j].Source
				}
				return list[i].Destination < list[j].Destination
			})
			for _, as := range list {
				if err := detectOne(as, emit); err != nil {
					return err
				}
			}
			return nil
		},
	)
}

// RescaleAndMerge is the rescaling/merging job of Sect. VII-B: it rescales
// each summary to the new (coarser) scale and merges summaries of the same
// pair, so long time ranges are analyzable without reprocessing raw logs.
func RescaleAndMerge(ctx context.Context, summaries []*timeseries.ActivitySummary, newScale int64, mrCfg mapreduce.JobConfig) ([]*timeseries.ActivitySummary, error) {
	mrCfg.Name = "rescale-merge"
	job := mapreduce.NewJob[*timeseries.ActivitySummary, pairKey, *timeseries.ActivitySummary, *timeseries.ActivitySummary](
		mrCfg,
		func(as *timeseries.ActivitySummary, emit mapreduce.Emitter[pairKey, *timeseries.ActivitySummary]) error {
			rescaled, err := as.Rescale(newScale)
			if err != nil {
				return err
			}
			emit(pairKey{Src: rescaled.Source, Dst: rescaled.Destination}, rescaled)
			return nil
		},
		func(key pairKey, list []*timeseries.ActivitySummary, emit func(*timeseries.ActivitySummary)) error {
			merged := list[0]
			var err error
			for _, as := range list[1:] {
				merged, err = timeseries.Merge(merged, as)
				if err != nil {
					return err
				}
			}
			emit(merged)
			return nil
		},
	)
	res, err := job.Run(ctx, summaries)
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}
