package source

import "testing"

// The commit benchmarks model the daemon's count-triggered commit at
// scale: a large standing store onto which each commit interval lands
// CommitEvery events spread over a few hundred pairs.
// BenchmarkCommitDelta is Engine.Commit as it runs — delta frames
// appended, with the compactions the doubling log triggers amortized in;
// BenchmarkCommitFull forces every commit through compaction, the
// whole-state rewrite that each commit used to be, and is the in-package
// reference. The benchgate min-ratio contract (Makefile
// BENCH_COMMIT_MIN_RATIO) holds the delta path to a floor multiple of the
// reference's commits/s in the same run, cancelling machine speed out.
const (
	benchCommitPairs     = 100000
	benchCommitEventsPer = 64
	benchCommitTouched   = 500 // pairs per interval, 10 events each: CommitEvery's 5000
)

func benchCommit(b *testing.B, full bool) {
	eng := standingStore(b, benchCommitPairs, benchCommitEventsPer)
	if err := eng.Commit(); err != nil {
		b.Fatal(err)
	}
	start := eng.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		applyDelta(eng, benchCommitPairs, i*benchCommitTouched, benchCommitTouched, 10, 5000+int64(i)*600)
		eng.suspect = full
		b.StartTimer()
		if err := eng.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	end := eng.Stats()
	if commits := end.Commits - start.Commits; commits != int64(b.N) {
		b.Fatalf("%d commits wrote a frame, want %d", commits, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "commits/s")
	b.ReportMetric(float64(end.CommitBytes-start.CommitBytes)/float64(b.N), "B/commit")
}

func BenchmarkCommitDelta(b *testing.B) { benchCommit(b, false) }
func BenchmarkCommitFull(b *testing.B)  { benchCommit(b, true) }
