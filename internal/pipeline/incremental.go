// The analysis core: Incremental is the one implementation of filters
// 1-8. It holds the per-pair state of every stage — summary, detection,
// indication outcome — plus the destination and source counts the local
// whitelist derives from, and each Tick applies a delta of changed and
// removed pairs and recomputes exactly the pairs whose stage inputs
// changed. A pair to a globally whitelisted destination is held as its
// event count alone: filter 1 is a verdict on the destination, so no later
// stage reads such a pair's history. Past filter 1:
//
//   - a changed pair re-runs detection — unless the caller already holds
//     the detection of exactly that history (TickWithDetections) — and
//     indication;
//   - a pair whose destination gained or lost pairs — or any pair, when
//     the distinct-source population changed — re-evaluates the local
//     whitelist and indication (its popularity inputs moved);
//   - a pair reported last tick, and every pair sharing its destination,
//     re-runs indication (the novelty store recorded the report, which
//     can flip verdicts from NewDestination to NewSource or Duplicate);
//   - a pair whose detection or indication errored retries every tick.
//
// The per-tick Result is then materialized from the standing state in one
// cheap O(total) pass (fresh Candidate values, funnel counters, the
// percentile ranking). The streaming daemon keeps one Incremental alive
// and ticks it with each interval's dirty pairs; a batch run (Run,
// RunStream, RunSummaries) is a fresh Incremental ticked once with every
// pair changed. Destination popularity (the paper's Sect. VII-C job) is
// therefore a set of maintained counts, not a per-run job. A
// standing tick must equal a from-empty tick over the same summaries with
// the same novelty-store history; the package's differential test pins
// that after every kind of delta.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"baywatch/internal/core"
	"baywatch/internal/guard"
	"baywatch/internal/ingest"
	"baywatch/internal/timeseries"
	"baywatch/internal/whitelist"
)

// PairRef names one communication pair as a struct — never a
// concatenated "src|dst" string, whose separator a hostile endpoint name
// could spoof — for delta notifications (removals) and staleness lists.
type PairRef struct {
	Source      string `json:"src"`
	Destination string `json:"dst"`
}

// incPair is one pair's standing state: its summary (which names the
// pair) and the cached outputs of every stage. A globally listed pair
// holds its event count and nothing else.
type incPair struct {
	// summary is nil for a globally listed pair.
	summary *timeseries.ActivitySummary
	// events is the pair's event count: its summary's, or, for a globally
	// listed pair, the count its delta delivered.
	events int
	// seen is the tick that last delivered the pair: a second summary
	// inside one delta merges into the first, and a second count adds to
	// it, instead of replacing it.
	seen int64
	// det/detErr cache the detect stage (filters 3-5). A nil det with nil
	// detErr means detection has not run for the current summary; detErr
	// non-nil means the last attempt failed and is retried every tick —
	// unless parked: then the delta's summaries of the pair could not be
	// merged, detErr says why, and detection waits for the next delta.
	det    *core.Result
	detErr error
	// ind/indErr cache the indication stage (filters 6-7 plus the ranking
	// score). ind is nil whenever an indication input changed or the last
	// attempt failed (indErr says why; it retries every tick).
	ind    *indication
	indErr error
	parked bool
	// gone marks a dropped pair until the tick compacts it out of order.
	gone bool
	// globalListed is filter 1's verdict — static per destination.
	globalListed bool
	// localListed is filter 2's current verdict; re-evaluated when the
	// destination's popularity inputs change.
	localListed bool
	// noveltyDirty marks a pair whose novelty verdict may have changed
	// because last tick's report mutated the store.
	noveltyDirty bool
}

// Incremental maintains the pipeline's standing state across ticks. It
// is not safe for concurrent use: the streaming engine serializes ticks.
type Incremental struct {
	cfg  Config
	tick int64
	// states holds every known pair, globally listed ones included.
	states map[pairKey]*incPair
	// order is every pair past filter 1 sorted by (source, destination) —
	// the canonical candidate order. A tick appends its new pairs, sorts
	// them and merges them in with one pass, and compacts removals in one
	// pass, so no delta size costs a slice shift per pair.
	order []*incPair
	// The popularity counts of Sect. VII-C, maintained instead of computed
	// per run: srcPairs counts pairs per source, so the distinct-source
	// population is len(srcPairs); destPairs counts distinct sources per
	// destination (== pairs per destination, since pairs are unique) and
	// byDest indexes those pairs. Filter 1's verdict is a function of the
	// destination alone and comes first, so a globally whitelisted
	// destination's popularity is never read and only the other
	// destinations are counted and indexed.
	srcPairs  map[string]int
	destPairs map[string]int
	byDest    map[string][]*incPair
	// inputEvents is the running event total across every pair.
	inputEvents int
}

// NewIncremental creates an empty standing pipeline with the given
// configuration (defaults applied once, so every tick runs under the
// identical component set).
func NewIncremental(cfg Config) (*Incremental, error) {
	cfg = cfg.withDefaults()
	if cfg.LM == nil {
		return nil, fmt.Errorf("pipeline: language model is required")
	}
	if cfg.Thresholds == nil {
		// Threshold memo entries are pure functions of (seed, series
		// multiset) — never of a pair's identity — so they outlive a
		// pair's invalidation and warm every later tick's detection.
		cfg.Thresholds = core.NewThresholdMemo(0)
	}
	return &Incremental{
		cfg:       cfg,
		states:    make(map[pairKey]*incPair),
		destPairs: make(map[string]int),
		byDest:    make(map[string][]*incPair),
		srcPairs:  make(map[string]int),
	}, nil
}

// Pairs reports the number of pairs currently held, globally listed ones
// included.
func (i *Incremental) Pairs() int { return len(i.states) }

func comparePairs(a, b *incPair) int {
	if c := strings.Compare(a.summary.Source, b.summary.Source); c != 0 {
		return c
	}
	return strings.Compare(a.summary.Destination, b.summary.Destination)
}

// admit puts the pairs a tick appended to order[n:] in their canonical
// places.
func (i *Incremental) admit(n int) {
	old, fresh := i.order[:n], i.order[n:]
	if len(fresh) == 0 {
		return
	}
	if !slices.IsSortedFunc(fresh, comparePairs) {
		slices.SortFunc(fresh, comparePairs)
	}
	if n == 0 || comparePairs(old[n-1], fresh[0]) < 0 {
		return
	}
	merged := make([]*incPair, 0, len(i.order))
	for len(old) > 0 && len(fresh) > 0 {
		if comparePairs(fresh[0], old[0]) < 0 {
			merged, fresh = append(merged, fresh[0]), fresh[1:]
		} else {
			merged, old = append(merged, old[0]), old[1:]
		}
	}
	i.order = append(append(merged, old...), fresh...)
}

// newPair starts the state of a pair the analysis has not held, taking
// filter 1's verdict on it, and counts its source.
func (i *Incremental) newPair(k pairKey, listed bool) *incPair {
	st := &incPair{globalListed: listed}
	i.states[k] = st
	i.srcPairs[k.Src]++
	if !listed {
		i.order = append(i.order, st)
		i.destPairs[k.Dst]++
		i.byDest[k.Dst] = append(i.byDest[k.Dst], st)
	}
	return st
}

// listed is filter 1's verdict on a destination.
func (i *Incremental) listed(dst string) bool {
	return i.cfg.Global != nil && i.cfg.Global.Contains(dst)
}

// count delivers a globally listed pair's event count: it replaces the
// pair's count from an earlier delta and adds to one from this delta.
func (i *Incremental) count(st *incPair, events int) {
	if st.seen != i.tick {
		i.inputEvents -= st.events
		st.events, st.seen = 0, i.tick
	}
	st.events += events
	i.inputEvents += events
}

// dropPair forgets one pair and unwinds its aggregate contributions; the
// caller compacts order afterwards if it reports that the pair was in it.
func (i *Incremental) dropPair(k pairKey, impacted map[string]struct{}) (inOrder bool) {
	st := i.states[k]
	if st == nil {
		return false
	}
	delete(i.states, k)
	st.gone = true
	i.inputEvents -= st.events
	if n := i.srcPairs[k.Src] - 1; n <= 0 {
		delete(i.srcPairs, k.Src)
	} else {
		i.srcPairs[k.Src] = n
	}
	if st.globalListed {
		return false
	}
	if n := i.destPairs[k.Dst] - 1; n <= 0 {
		delete(i.destPairs, k.Dst)
		delete(i.byDest, k.Dst)
	} else {
		i.destPairs[k.Dst] = n
		peers := i.byDest[k.Dst]
		at := slices.Index(peers, st)
		peers[at] = peers[n]
		peers[n] = nil
		i.byDest[k.Dst] = peers[:n]
	}
	impacted[k.Dst] = struct{}{}
	return true
}

// Tick applies one delta — changed holds the fresh summary of every pair
// whose history changed (new or updated), removed the pairs evicted by
// retention — and returns the full standing Result. changed may be in any
// order; several summaries of one pair in the same delta are merged (a
// pair whose summaries cannot merge is isolated under StageError). A
// summary of a globally listed pair is reduced to its event count (see
// TickWithDetections). Summaries must never be mutated after being passed
// in.
func (i *Incremental) Tick(ctx context.Context, changed []*timeseries.ActivitySummary, removed []PairRef) (*Result, error) {
	return i.TickWithDetections(ctx, changed, nil, nil, removed)
}

// TickWithDetections is Tick for a caller that kept detections from an
// earlier run, or that took filter 1's verdict itself. known, when
// non-nil, is parallel to changed, and a non-nil known[j] is the
// detector's result for exactly the history changed[j] summarizes, under
// this pipeline's detector configuration and scale. Such a pair skips the
// detect job — detection is a pure function of (history, configuration),
// so the Result is the one a plain Tick returns — and everything else
// about the delta runs as usual. A pair with several summaries in the
// delta is merged and detected afresh.
//
// counted carries pairs to globally whitelisted destinations as event
// counts, which is all the analysis reads of them; a count for a pair the
// global whitelist does not list is an error. A listed pair delivered as
// a summary is held as its count too, and within one delta a pair's
// counts add, whichever way each arrived.
func (i *Incremental) TickWithDetections(ctx context.Context, changed []*timeseries.ActivitySummary, known []*core.Result, counted []ingest.PairCount, removed []PairRef) (*Result, error) {
	// Refused before anything is applied, so the standing state never
	// holds part of a delta. A held pair's verdict was taken when the
	// analysis first held it; only a new pair's is taken here.
	for _, c := range counted {
		st := i.states[pairKey{Src: c.Source, Dst: c.Destination}]
		if st != nil && !st.globalListed || st == nil && !i.listed(c.Destination) {
			return nil, fmt.Errorf("pipeline: counted pair %s -> %s is not globally whitelisted", c.Source, c.Destination)
		}
	}
	g := i.cfg.Guard
	i.tick++

	// ---- Apply the delta to the standing aggregates ---------------------
	popStart := time.Now()
	impacted := make(map[string]struct{})
	prevTotal := len(i.srcPairs)
	compact := false
	for _, r := range removed {
		if i.dropPair(pairKey{Src: r.Source, Dst: r.Destination}, impacted) {
			compact = true
		}
	}
	if compact {
		i.order = slices.DeleteFunc(i.order, func(st *incPair) bool { return st.gone })
	}
	if len(i.states) == 0 && len(changed)+len(counted) > 0 {
		// Loading from empty: size the containers once.
		i.states = make(map[pairKey]*incPair, len(changed)+len(counted))
		i.order = make([]*incPair, 0, len(changed))
	}
	standing := len(i.order)
	for j, as := range changed {
		k := pairKey{Src: as.Source, Dst: as.Destination}
		st := i.states[k]
		if st == nil {
			st = i.newPair(k, i.listed(k.Dst))
		}
		if st.globalListed {
			i.count(st, as.EventCount())
			continue
		}
		var det *core.Result
		if known != nil {
			det = known[j]
		}
		if st.seen == i.tick {
			det = nil // the merged history is not the one known[j] covers
			if st.parked {
				continue
			}
			m, err := safeMerge(st.summary, as)
			if err != nil {
				st.detErr, st.parked = err, true
				continue
			}
			as = m
		}
		i.inputEvents += as.EventCount() - st.events
		st.summary, st.events, st.seen = as, as.EventCount(), i.tick
		st.det, st.detErr, st.parked = det, nil, false
		st.ind, st.indErr = nil, nil
	}
	for _, c := range counted {
		k := pairKey{Src: c.Source, Dst: c.Destination}
		st := i.states[k]
		if st == nil {
			st = i.newPair(k, true)
		}
		i.count(st, c.Events)
	}
	fresh := i.order[standing:]
	totalSources := len(i.srcPairs)
	if totalSources == prevTotal {
		for _, st := range fresh {
			impacted[st.summary.Destination] = struct{}{}
		}
	}
	i.admit(standing)

	// The local whitelist is rebuilt from the maintained counts each tick
	// (Build copies the map — O(destinations), no event work).
	local := whitelist.NewLocal(i.cfg.LocalTau)
	local.Build(i.destPairs, totalSources)

	// ---- Filter 2 re-evaluation for popularity-impacted pairs -----------
	// A globally whitelisted pair never reads filter 2's verdict or the
	// popularity inputs, so it is in neither list walked here.
	reEval := func(st *incPair) {
		st.localListed = local.Contains(st.summary.Destination)
		// Popularity and similar-sources feed the indication outcome.
		st.ind = nil
	}
	if totalSources != prevTotal {
		// The whitelist denominator moved: every pair's popularity did too.
		for _, st := range i.order {
			reEval(st)
		}
	} else {
		for d := range impacted {
			for _, st := range i.byDest[d] {
				reEval(st)
			}
		}
	}
	popTime := time.Since(popStart)

	// ---- Filters 3-5 over the pairs that need detection -----------------
	// Changed pairs whose detection is not already known (det cleared
	// above), pairs that just crossed out of a whitelist with no cached
	// result, and pairs whose last detection errored.
	detStart := time.Now()
	var detList []*timeseries.ActivitySummary
	for _, st := range i.order {
		if st.localListed || st.det != nil || st.parked {
			continue
		}
		detList = append(detList, st.summary)
	}
	if len(detList) > 0 {
		detCtx, detDone := stageCtx(ctx, g, "detect")
		detections, err := detectBeacons(detCtx, detList, i.cfg.Detector, g, i.cfg.Thresholds)
		detDone()
		if err != nil {
			return nil, fmt.Errorf("pipeline: detect: %w", err)
		}
		for _, d := range detections {
			st := i.states[pairKey{Src: d.Summary.Source, Dst: d.Summary.Destination}]
			st.det, st.detErr = d.Result, d.Err
			st.ind = nil
		}
	}
	detTime := time.Since(detStart)

	// ---- Filters 6-8 over the pairs whose indication inputs changed -----
	// Each candidate is analyzed in isolation: an error, panic or timeout
	// marks that candidate StageError and degrades the run instead of
	// killing it. The analysis returns its outcome by value so a deadline
	// can abandon an overrunning candidate without it racing on shared
	// state (see guard.RunBounded).
	rankStart := time.Now()
	for _, st := range i.order {
		nd := st.noveltyDirty
		st.noveltyDirty = false
		if st.localListed || st.det == nil {
			continue
		}
		if st.ind != nil && !nd {
			continue
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("pipeline: indication: %w", guardCause(ctx))
		}
		cand := &Candidate{Source: st.summary.Source, Destination: st.summary.Destination, Summary: st.summary, Detection: st.det}
		d := Detection{Summary: st.summary, Result: st.det}
		out, err := guard.RunBounded(ctx, g.CandidateTimeout, func() (indication, error) {
			return runIndication(i.cfg, local, i.destPairs, cand, d)
		})
		st.ind, st.indErr = nil, err
		if err == nil {
			st.ind = &out
		}
	}

	// ---- Materialize the standing result --------------------------------
	// Fresh Candidate values every tick: published results are read
	// concurrently by query handlers while the next tick's ranking would
	// mutate SuppressedBy, so cached state is never aliased into a Result.
	res := &Result{Detected: len(detList)}
	res.Stats.InputEvents = i.inputEvents
	res.Stats.Pairs = len(i.states)
	res.Stats.AfterGlobalWhitelist = len(i.order)
	res.Stats.PopularityTime = popTime
	res.Stats.DetectTime = detTime
	for _, st := range i.order {
		if st.localListed {
			continue
		}
		res.Stats.AfterLocalWhitelist++
		cand := &Candidate{Source: st.summary.Source, Destination: st.summary.Destination, Summary: st.summary, Detection: st.det}
		res.Candidates = append(res.Candidates, cand)
		if st.detErr != nil {
			cand.SuppressedBy = StageError
			res.Errors = append(res.Errors, CandidateError{
				Source: cand.Source, Destination: cand.Destination, Stage: "detect", Err: st.detErr.Error(),
			})
			continue
		}
		if st.indErr != nil {
			cand.SuppressedBy = StageError
			res.Errors = append(res.Errors, CandidateError{
				Source: cand.Source, Destination: cand.Destination, Stage: "indication", Err: st.indErr.Error(),
			})
			continue
		}
		out := *st.ind
		cand.LMScore, cand.Popularity, cand.SimilarSources = out.lmScore, out.popularity, out.similar
		cand.Token, cand.Novelty, cand.Score = out.token, out.novelty, out.score
		cand.SuppressedBy = out.suppressed
		// Funnel accounting derives from where the candidate stopped, so
		// abandoned analyses never double-count.
		bookFunnel(&res.Stats, out.suppressed)
	}
	res.Stats.Errored = len(res.Errors)
	res.Degraded = len(res.Errors) > 0

	rankAndReport(res, i.cfg)
	res.Stats.RankTime = time.Since(rankStart)

	// A report mutates the novelty store (MarkReported), which can change
	// verdicts next tick: the reported pair itself becomes Duplicate, and
	// every pair sharing its destination can flip NewDestination to
	// NewSource. Mark them all for re-indication.
	if i.cfg.Novelty != nil {
		for _, c := range res.Reported {
			for _, st := range i.byDest[c.Destination] {
				st.noveltyDirty = true
			}
		}
	}
	return res, nil
}
