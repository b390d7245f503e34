package faultinject

// Point is the name of a fault-injection point. Production code addresses
// every injection point through one of the typed constants below rather
// than a bare string literal, so that a typo in a point name is a compile
// error (unknown identifier) or a lint error (unregistered literal, see
// internal/analysis/faultpoint) instead of a silently disarmed fault hook.
//
// Two kinds of points exist:
//
//   - plain points ("opsloop.commit.done") are traversed with the constant
//     itself;
//   - keyed points ("pipeline.detect") carry a per-call key appended with
//     Keyed, producing names like "pipeline.detect:src|dst". Schedulers
//     and tests match keyed traversals by the registered prefix.
type Point string

// Keyed derives the per-call instance of a keyed point: p + ":" + key.
// Hot concurrent paths use distinct keyed instances so per-point hit
// counts stay deterministic (see the package comment).
func (p Point) Keyed(key string) Point { return p + Point(":"+key) }

// Registered fault-injection points. Every point traversed by production
// code must be declared here and listed in Points(); the faultpoint
// analyzer enforces both directions, and TestRegisteredPointsExercised
// asserts each one is exercised by at least one fault-injection test.
const (
	// opsloop manifest journal: the atomic write-ahead manifest update
	// (create temp, write, fsync, rename, fsync dir).
	PointOpsloopManifestCreate  Point = "opsloop.manifest.create"
	PointOpsloopManifestWrite   Point = "opsloop.manifest.write"
	PointOpsloopManifestSync    Point = "opsloop.manifest.sync"
	PointOpsloopManifestRename  Point = "opsloop.manifest.rename"
	PointOpsloopManifestDirsync Point = "opsloop.manifest.dirsync"

	// opsloop per-day payload: the atomic day-file write.
	PointOpsloopDayCreate  Point = "opsloop.day.create"
	PointOpsloopDayWrite   Point = "opsloop.day.write"
	PointOpsloopDaySync    Point = "opsloop.day.sync"
	PointOpsloopDayRename  Point = "opsloop.day.rename"
	PointOpsloopDayDirsync Point = "opsloop.day.dirsync"

	// opsloop state transitions around a day commit.
	PointOpsloopNoveltySave Point = "opsloop.novelty.save"
	PointOpsloopCommitDone  Point = "opsloop.commit.done"

	// mapreduce per-input call, keyed by the job's key of the input
	// ("src|dst" for both pipeline jobs).
	PointMapreduceTask Point = "mapreduce.task"

	// pipeline per-candidate isolation points, keyed by "src|dst".
	PointPipelineDetect     Point = "pipeline.detect"
	PointPipelineIndication Point = "pipeline.indication"

	// guard watchdog stall notifications, keyed by worker name.
	PointGuardWatchdogStall Point = "guard.watchdog.stall"

	// ingest sharded streaming scan and aggregation, keyed by the split
	// (scan) or partition index (aggregate).
	PointIngestShardScan Point = "ingest.shard.scan"
	PointIngestAggregate Point = "ingest.aggregate"

	// source live-source connectors (internal/source), keyed by source
	// name: the file follower's open/read cycle plus the rotation and
	// truncation transitions (the race windows where a tail can lose or
	// double-read data), the socket accept/read path (connection resets),
	// and the HTTP ingest handler.
	PointSourceFollowOpen     Point = "source.follow.open"
	PointSourceFollowRead     Point = "source.follow.read"
	PointSourceFollowRotate   Point = "source.follow.rotate"
	PointSourceFollowTruncate Point = "source.follow.truncate"
	PointSourceSocketAccept   Point = "source.socket.accept"
	PointSourceSocketRead     Point = "source.socket.read"
	PointSourceHTTPIngest     Point = "source.http.ingest"

	// source daemon checkpoint log: the atomic snapshot write a
	// compaction makes (create temp, write, fsync, rename, fsync dir),
	// the delta-frame append every other commit makes (append fires
	// before the write, appendsync before the fsync), the post-commit
	// gap, and the incremental detection tick.
	PointSourceCheckpointCreate     Point = "source.checkpoint.create"
	PointSourceCheckpointWrite      Point = "source.checkpoint.write"
	PointSourceCheckpointSync       Point = "source.checkpoint.sync"
	PointSourceCheckpointRename     Point = "source.checkpoint.rename"
	PointSourceCheckpointDirsync    Point = "source.checkpoint.dirsync"
	PointSourceCheckpointAppend     Point = "source.checkpoint.append"
	PointSourceCheckpointAppendsync Point = "source.checkpoint.appendsync"
	PointSourceCommitDone           Point = "source.commit.done"
	PointSourceDetectTick           Point = "source.detect.tick"
	// Retention points: compact.plan fires before the eviction set is
	// computed (an error aborts the commit untouched); evict.apply fires
	// after the frame carrying the evictions committed and the in-memory
	// store dropped the evicted pairs (a pure crash point, like
	// commit.done).
	PointSourceCompactPlan Point = "source.compact.plan"
	PointSourceEvictApply  Point = "source.evict.apply"
)

// Points returns every registered fault-injection point. Keyed points are
// listed by their prefix (the part before the ":<key>" suffix).
func Points() []Point {
	return []Point{
		PointOpsloopManifestCreate,
		PointOpsloopManifestWrite,
		PointOpsloopManifestSync,
		PointOpsloopManifestRename,
		PointOpsloopManifestDirsync,
		PointOpsloopDayCreate,
		PointOpsloopDayWrite,
		PointOpsloopDaySync,
		PointOpsloopDayRename,
		PointOpsloopDayDirsync,
		PointOpsloopNoveltySave,
		PointOpsloopCommitDone,
		PointMapreduceTask,
		PointPipelineDetect,
		PointPipelineIndication,
		PointGuardWatchdogStall,
		PointIngestShardScan,
		PointIngestAggregate,
		PointSourceFollowOpen,
		PointSourceFollowRead,
		PointSourceFollowRotate,
		PointSourceFollowTruncate,
		PointSourceSocketAccept,
		PointSourceSocketRead,
		PointSourceHTTPIngest,
		PointSourceCheckpointCreate,
		PointSourceCheckpointWrite,
		PointSourceCheckpointSync,
		PointSourceCheckpointRename,
		PointSourceCheckpointDirsync,
		PointSourceCheckpointAppend,
		PointSourceCheckpointAppendsync,
		PointSourceCommitDone,
		PointSourceDetectTick,
		PointSourceCompactPlan,
		PointSourceEvictApply,
	}
}
