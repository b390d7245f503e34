GO ?= go

# The benchmarks the perf gate watches: the periodicity hot path (dsp),
# the interval mixture fit (stats), the detector built on both (core),
# the ingest layer (parse,
# direct-to-summary aggregation through the shard adapter, and the same
# aggregation fed a materialized record slice through the event adapter),
# and the daemon's file-follow tail path (source).
# -benchtime is kept short so ten repetitions stay affordable in CI; the
# gate compares medians, which tolerates short per-repetition runs.
BENCH_PATTERN ?= Periodogram|LagACF|FitGMM|Detector|IngestParse|IngestToSummaries|BatchToSummaries|FollowTail|QueryRankedCached
BENCH_PKGS    ?= ./internal/dsp ./internal/stats ./internal/core ./internal/ingest ./internal/source
BENCH_FLAGS   ?= -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -count=10 -benchtime=300x -timeout=20m

# The full-pipeline benchmark runs the detector over every pair, so one
# iteration is ~1s; it gets its own light pass (few short repetitions)
# instead of riding the 300x microbenchmark flags.
BENCH_E2E_FLAGS ?= -run='^$$' -bench='PipelineEndToEnd' -benchmem -count=5 -benchtime=3x -timeout=20m

# The batch-detection macro benchmarks each detect 1000 same-bucket pairs
# per iteration (one op ~ seconds), so like the e2e pass they run few and
# short. DetectPerPair rides along as the in-run comparison point for the
# pairs/s speedup gate below.
BENCH_BATCH_FLAGS ?= -run='^$$' -bench='DetectBatch$$|DetectPerPair$$' -benchmem -count=5 -benchtime=1x -timeout=20m

# The batch path must stay at least this many times faster (median pairs/s)
# than the per-pair loop IN THE SAME RUN — a machine-independent gate on
# the plan-at-a-time speedup itself, enforced by benchgate -min-ratio.
BENCH_BATCH_MIN_RATIO ?= BenchmarkDetectBatch/BenchmarkDetectPerPair:pairs/s:2

# The steady-state tick benchmarks: a 10k-pair standing population with 1%
# dirtied per tick, incremental vs. full-recompute. One full-recompute
# iteration is ~0.5s, so this pass also runs few and short. (The cached
# query-path benchmark is a microbenchmark and rides the 300x pass via
# BENCH_PATTERN.)
BENCH_TICK_FLAGS ?= -run='^$$' -bench='TickSteadyState$$|TickFullRecompute$$' -benchmem -count=5 -benchtime=3x -timeout=20m

# The dirty-only tick path must stay at least this many times faster
# (median ticks/s) than a full recompute of the same population IN THE
# SAME RUN — the sub-linear steady-state contract itself, machine speed
# cancelled out. The full recompute is the test-only reference (a fresh
# pipeline over every pair, detection included), so a cheaper detector
# shrinks the ratio without the tick changing: it read 66-116x while the
# detector ran Bluestein spectra and reads 25-29x on the power-of-two grid
# (the 1%-dirty tick is now mostly its O(total) rank/materialize tail).
# The floor sits at a third of the measured ratio, as it did before.
BENCH_TICK_MIN_RATIO ?= BenchmarkTickSteadyState/BenchmarkTickFullRecompute:ticks/s:9

# The commit benchmarks: a 100k-pair x 64-event standing store taking
# CommitEvery-sized deltas. The two run in separate invocations because
# they need different lengths: CommitDelta must run long enough to cross
# the compactions its own appends trigger (the first after ~530 commits
# at this size), so their cost is amortized into its commits/s, while one
# CommitFull iteration rewrites the whole ~9 MB state.
BENCH_COMMIT_FLAGS ?= -run='^$$' -benchmem -count=5 -timeout=20m
BENCH_COMMIT = $(GO) test $(BENCH_COMMIT_FLAGS) -bench='CommitDelta$$' -benchtime=1200x ./internal/source && \
	$(GO) test $(BENCH_COMMIT_FLAGS) -bench='CommitFull$$' -benchtime=5x ./internal/source

# A delta commit must stay at least this many times faster (median
# commits/s, compactions included) than rewriting the whole state IN THE
# SAME RUN — the O(new events) commit contract itself, machine speed
# cancelled out.
BENCH_COMMIT_MIN_RATIO ?= BenchmarkCommitDelta/BenchmarkCommitFull:commits/s:10

# The restart benchmark: a 10k-pair committed store of which 300 planted
# beacons reach detection; one iteration is OpenEngine plus the first tick,
# warm (the log's detections are this configuration's) and cold (they are
# another's, so the tick detects everything). A cold iteration is ~0.6s, so
# like the tick pass it runs few and short.
BENCH_RESTART_FLAGS ?= -run='^$$' -bench='RestartFirstTick$$' -benchmem -count=5 -benchtime=3x -timeout=20m

# A warm restart must stay at least this many times faster (median
# restarts/s) than a cold one of the same store IN THE SAME RUN — the
# detected-once-per-history contract itself, machine speed cancelled out.
BENCH_RESTART_MIN_RATIO ?= BenchmarkRestartFirstTick/warm/BenchmarkRestartFirstTick/cold:restarts/s:2

# The two batch macro benchmarks run seconds per iteration, long enough to
# integrate co-tenant CI load; their medians drift past the default 10%
# band run-to-run even with no code change. They get a wider absolute band
# — their precise contract is the in-run min-ratio above, which cancels
# machine speed out.
BENCH_NOISE ?= -noise 'BenchmarkDetectPerPair:0.35' -noise 'BenchmarkDetectBatch:0.25' \
	-noise 'BenchmarkTickSteadyState:0.35' -noise 'BenchmarkTickFullRecompute:0.25' \
	-noise 'BenchmarkQueryRankedCached:0.35' \
	-noise 'BenchmarkCommitDelta:0.35' -noise 'BenchmarkCommitFull:0.35' \
	-noise 'BenchmarkRestartFirstTick/warm:0.35' -noise 'BenchmarkRestartFirstTick/cold:0.25'

.PHONY: check vet build test test-race fuzz-smoke tidy lint bench bench-ingest bench-baseline bench-check bench-smoke soak soak-smoke \
	named-runs-exist test-front-half test-stored-detections test-durable test-guard test-freshness \
	cross-build

# The named re-runs: test lists CI runs again by name after make check, so
# a divergence shows as its own line in the CI summary (see ci.yml for
# what each list pins). Each list runs as one unanchored -run alternation
# over its packages. A -run regex that matches nothing passes silently,
# so named-runs-exist fails when a name here is no test of its packages.
FRONT_HALF_TESTS := TestGoldenFunnel TestGoldenSummaries TestRunStreamMatchesRun \
	TestRunSeparatorPairsStayDistinct TestWholeFileReadersMatchReference \
	TestIngestReportsFailingShardNotCancelledSibling TestIngestCountsListedPairs \
	TestCountPathMatchesSummaryPath TestIncrementalListedPairsAsCounts TestListedCountedAtScan
FRONT_HALF_PKGS := ./internal/pipeline ./internal/proxylog ./internal/ingest
STORED_DETECTION_TESTS := TestDeltaLogMatchesCompaction TestRestartDetectsOncePerHistory \
	TestEvictedPairNeverInheritsDetection TestRestoredPairsMarkedStale \
	TestReplayRejectsBadSampleOrSource TestInternRepeatedLinesAllocateOnlyPaths \
	TestInternSlotCollision TestInternSkipsLongFields TestDeliveredEventsOutliveReadBuffer \
	TestHTTPIngestConcurrentProducers TestResultCodecRoundTrip TestCountCommitBoundWhileLoopBusy \
	TestCountCommitRunsOnDaemonLoop TestSnapshotCreationOrderSurvivesChurn \
	TestStaleEmptyWhileSourcesHealthy TestFromTimestampsMatchesSortReference \
	TestPublishMatchesTimelines TestPublishedGenerationsImmutable \
	TestPublishAllocsIndependentOfStoreSize TestSummaryPathSampleNotAliased \
	TestReplayPairCountBoundedByFrame TestLineFramerChunkingInvariant \
	TestSocketOverlongLineBounded TestFollowIdleBackoffSchedule TestFollowMissingPathBackoff \
	TestFollowRotationReadsOldFileToEnd TestFollowWakeOnAppend TestFollowWakeAfterRename \
	TestTickCommitSavesDetections TestStatusFunnelMatchesBatch TestTickCountsListedPairs \
	TestCommitHangLeavesEngineLive TestBatchDecidedByFrameInFlightWaits \
	TestConcurrentApplyAndCommitReplay TestCommitWaitsForFrameInFlight
STORED_DETECTION_PKGS := ./internal/source ./internal/core ./internal/timeseries
DURABLE_TESTS := TestDurableOwnsRenames TestWriteFileStepOrder TestWriteFileStepFaults \
	TestQuarantineNeverOverwrites TestQuarantineReportsFailure \
	TestUnquarantinableCheckpointKept TestQuarantineLongNameTerminates TestUnquarantinableManifestKept \
	TestUnquarantinableNoveltyKept TestCrashAcrossPackagesConverges \
	TestCheckRejectsUnregisteredPoint TestCheckNoHookAllocs TestSwallowedNamesRecoveredCrash
DURABLE_PKGS := ./internal/durable ./internal/source ./internal/opsloop ./internal/faultinject
GUARD_TESTS := TestRunBoundedTimeout TestRunBoundedContextCause \
	TestCandidateTimeoutParksHungDetection TestCandidateTimeoutParksHungIndication \
	TestRescaleAndMergeFailureBudget TestCoarsePassRescaleMergeBounded \
	TestStageTimeoutFailsRun TestRunCancellationPromptAndNoLeak TestRescaleAndMergeCancelledMidStep \
	TestQueryShedsWhenSlotsFull TestWatchdogStallCancelsSilentConnector TestStallTimerAliveKeepsConnector \
	TestStallTimerRearmsPerRun TestStallTimerLeavesNoGoroutine
GUARD_PKGS := ./internal/guard ./internal/pipeline ./internal/opsloop ./internal/source
FRESHNESS_TESTS := TestTickOnCaughtUpSource TestNoTickWhileBacklogged \
	TestIdleSourceMintsNoGeneration TestOnDemandTickPacedByItsCost \
	TestFollowWakeOnAppend TestTickCommitSavesDetections \
	TestFollowWakesWithoutPolling TestFollowWatchCancelPrompt TestFollowWatchReleasedOnReopen \
	TestOnDemandTicksWriteNoFrame TestClockTickIsTheCommitClock
FRESHNESS_PKGS := ./internal/source

empty :=
space := $(empty) $(empty)
# runregex joins a list of test names into one -run alternation.
runregex = $(subst $(space),|,$(strip $(1)))

# names_exist fails, naming each, when a test name in $(1) is not listed
# by go test -list in the packages $(2).
define names_exist
listed=$$($(GO) test -list '.*' $(2)) || exit 1; \
missing=0; \
for name in $(strip $(1)); do \
	printf '%s\n' "$$listed" | grep -qx "$$name" || { echo "named re-run $$name matches no test in $(2)"; missing=1; }; \
done; \
exit $$missing
endef

named-runs-exist:
	@$(call names_exist,$(FRONT_HALF_TESTS),$(FRONT_HALF_PKGS))
	@$(call names_exist,$(STORED_DETECTION_TESTS),$(STORED_DETECTION_PKGS))
	@$(call names_exist,$(DURABLE_TESTS),$(DURABLE_PKGS))
	@$(call names_exist,$(GUARD_TESTS),$(GUARD_PKGS))
	@$(call names_exist,$(FRESHNESS_TESTS),$(FRESHNESS_PKGS))

test-front-half:
	$(GO) test -count=1 -run '$(call runregex,$(FRONT_HALF_TESTS))' $(FRONT_HALF_PKGS)

test-stored-detections:
	$(GO) test -count=1 -run '$(call runregex,$(STORED_DETECTION_TESTS))' $(STORED_DETECTION_PKGS)

test-durable:
	$(GO) test -count=1 -run '$(call runregex,$(DURABLE_TESTS))' $(DURABLE_PKGS)

test-guard:
	$(GO) test -count=1 -run '$(call runregex,$(GUARD_TESTS))' $(GUARD_PKGS)

test-freshness:
	$(GO) test -count=1 -run '$(call runregex,$(FRESHNESS_TESTS))' $(FRESHNESS_PKGS)

# check is the CI entry point: vet, build, the full test suite under the
# race detector (the fault-injection and crash-recovery tests exercise real
# concurrency), and the repository benchmark's own module, which the root
# build never compiles.
check: vet build test-race bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# cross-build compiles the module for platforms other than the host's:
# darwin (unix without inotify), windows (no syscall.Stat_t) and freebsd,
# so a platform-specific file missing its fallback fails here. It needs
# only the local toolchain.
CROSS_GOOS ?= darwin windows freebsd
cross-build:
	@for goos in $(CROSS_GOOS); do \
		echo "GOOS=$$goos $(GO) build ./..."; \
		GOOS=$$goos $(GO) build ./... || exit 1; \
	done

# The watchdog and deadline tests hang injected tasks on purpose; the
# explicit timeout turns an escaped hang into a failure instead of a
# stuck CI job.
test:
	$(GO) test -timeout=5m ./...

test-race:
	$(GO) test -race -timeout=5m ./...

# A few seconds of coverage-guided fuzzing over each untrusted decoder —
# the batch record parser, the zero-copy view parser, the whole-file
# readers built on it (against the sequential Scanner reader), the
# sharded-ingest line path, the detection-result codec, and the daemon's
# checkpoint-log replay that embeds it — cheap enough to run routinely.
# The patterns are anchored: -fuzz errors out when it matches more than
# one target. The replay target's workers each build and tick a log before
# their first input (~3s), so it runs twice as long as the others.
fuzz-smoke:
	$(GO) test ./internal/proxylog -run='^$$' -fuzz='FuzzParseRecord$$' -fuzztime=5s
	$(GO) test ./internal/proxylog -run='^$$' -fuzz='FuzzParseRecordView$$' -fuzztime=5s
	$(GO) test ./internal/proxylog -run='^$$' -fuzz='FuzzReadAll$$' -fuzztime=5s
	$(GO) test ./internal/ingest -run='^$$' -fuzz='FuzzIngestLine$$' -fuzztime=5s
	$(GO) test ./internal/core -run='^$$' -fuzz='FuzzResultCodec$$' -fuzztime=5s
	$(GO) test ./internal/source -run='^$$' -fuzz='FuzzCheckpointReplay$$' -fuzztime=10s

tidy:
	$(GO) mod tidy

# lint is the fast static gate CI runs before spending a full race-detector
# build: gofmt, stock go vet, then the repo's own analyzer suite (bwlint:
# fault-point hygiene, guarded goroutines, pool discipline, float
# comparisons, //bw:noalloc contracts, lock discipline, context flow and
# goroutine-leak shapes — see DESIGN.md sections 5e and 5j). -audit also
# fails on stale //bw: suppressions and on DIRECTIVE_BUDGET.txt overruns.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/bwlint -audit ./...

# bench prints the gated microbenchmarks (see BENCH_PATTERN) for local
# inspection.
bench:
	$(GO) test $(BENCH_FLAGS) $(BENCH_PKGS)
	$(GO) test $(BENCH_BATCH_FLAGS) ./internal/core
	$(GO) test $(BENCH_TICK_FLAGS) ./internal/source
	$(BENCH_COMMIT)
	$(GO) test $(BENCH_RESTART_FLAGS) ./internal/source

# bench-ingest runs the sharded-ingest benchmark suite by itself — the
# zero-copy parse pass, the direct-to-summary aggregation, the
# record-slice route to the same aggregation, and the full-pipeline run —
# for local inspection of ingest changes.
bench-ingest:
	$(GO) test -run='^$$' -bench='IngestParse|IngestToSummaries|BatchToSummaries' -benchmem -count=3 -benchtime=300x ./internal/ingest
	$(GO) test $(BENCH_E2E_FLAGS) ./internal/ingest

# bench-baseline regenerates the committed baseline. Run it on a quiet
# machine after an intended performance change and commit the result.
bench-baseline:
	($(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) && $(GO) test $(BENCH_E2E_FLAGS) ./internal/ingest && $(GO) test $(BENCH_BATCH_FLAGS) ./internal/core && $(GO) test $(BENCH_TICK_FLAGS) ./internal/source && $(BENCH_COMMIT) && $(GO) test $(BENCH_RESTART_FLAGS) ./internal/source) | tee BENCH_BASELINE.txt

# soak keeps the streaming daemon under randomized fault injection for
# ~30s and checks the drained state matches a clean batch run exactly.
# The prefix match also runs TestDaemonSoakRetention, the variant with a
# small -retain-windows and pair churn that pins bounded state under the
# same faults. Set BAYWATCH_FAULT_SCHEDULE (see README; a source test
# helper decodes it) to replay an explicit schedule of error/delay rules
# instead of the seeded random one.
soak:
	$(GO) test ./internal/source -run='^TestDaemonSoak' -count=1 -soak=30s -timeout=5m -v

# soak-smoke is the CI-sized soak: a few seconds is enough to exercise
# restarts, replays, commit retries and retention eviction on every push.
soak-smoke:
	$(GO) test ./internal/source -run='^TestDaemonSoak' -count=1 -soak=3s -timeout=5m

# bench-smoke vets and tests the repository benchmark (bench/, see
# BENCHMARK.json): a nested module with its own go.mod that imports
# baywatch/internal/..., so the root `go build ./... && go test ./...`
# never compiles it and a deleted or renamed internal API would only
# surface when the benchmark is next run. Its tests include a 1/50-scale
# smoke of all five workloads (~16 s).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-check runs the benchmarks and fails on >10% median ns/op growth,
# any allocs/op growth, a >10% drop in any rate metric (pairs/s), or the
# batch path, the dirty-only tick, the delta commit or the warm restart
# falling under its in-run speedup floor (see cmd/benchgate).
# The report is tee'd to /tmp/benchgate-report.txt so CI can upload it as
# an artifact even on failure; the pipe preserves benchgate's exit status
# because the tee sits inside the same invocation via a shell group.
bench-check:
	($(GO) test $(BENCH_FLAGS) $(BENCH_PKGS) && $(GO) test $(BENCH_E2E_FLAGS) ./internal/ingest && $(GO) test $(BENCH_BATCH_FLAGS) ./internal/core && $(GO) test $(BENCH_TICK_FLAGS) ./internal/source && $(BENCH_COMMIT) && $(GO) test $(BENCH_RESTART_FLAGS) ./internal/source) > /tmp/bench-current.txt || (cat /tmp/bench-current.txt; exit 1)
	$(GO) run ./cmd/benchgate -baseline BENCH_BASELINE.txt -current /tmp/bench-current.txt \
		-min-ratio '$(BENCH_BATCH_MIN_RATIO)' -min-ratio '$(BENCH_TICK_MIN_RATIO)' \
		-min-ratio '$(BENCH_COMMIT_MIN_RATIO)' -min-ratio '$(BENCH_RESTART_MIN_RATIO)' \
		$(BENCH_NOISE) > /tmp/benchgate-report.txt; \
	status=$$?; cat /tmp/benchgate-report.txt; exit $$status
