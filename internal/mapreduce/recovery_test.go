package mapreduce

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"baywatch/internal/faultinject"
)

// Corrupt-spill recovery: ErrSpillCorrupt during shuffle replay must
// quarantine the file and re-execute the producing map shard once,
// failing the job only if the regenerated file is corrupt too.

// corruptionCfg spills aggressively so a small job produces several spill
// files per shard.
func corruptionCfg(dir string) JobConfig {
	// One reducer keeps partition replay serial, so a fault hook firing at
	// the first replay is guaranteed to run before any spill file has been
	// consumed (two reducers would race the hook's truncation).
	return JobConfig{
		Name:           "corruptible",
		Mappers:        2,
		Reducers:       1,
		PartitionBits:  2,
		SpillDir:       dir,
		SpillThreshold: 4,
	}
}

var corruptionLines = []string{
	"beacon beacon ping", "host dns poll", "ping ping jitter", "dns beacon tick",
	"poll host host", "tick jitter dns", "beacon poll ping", "jitter tick host",
	"dns dns beacon", "ping host tick", "poll poll jitter", "beacon host dns",
}

// spillFiles lists every live spill file under the job's spill root(s),
// sorted, including shard-rerun directories.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	for _, pattern := range []string{
		filepath.Join(dir, "mrspill-*", "spill-*.gob"),
		filepath.Join(dir, "mrspill-*", "rerun-w*", "spill-*.gob"),
	} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sort.Strings(paths)
	return paths
}

func truncateFile(t *testing.T, path string, cut int64) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-cut); err != nil {
		t.Fatal(err)
	}
}

// TestSpillTruncatedFooterRecovered truncates one spill file into its
// footer between the map phase and its replay: the job must quarantine
// it, re-run the producing shard, and finish with the clean run's exact
// result.
func TestSpillTruncatedFooterRecovered(t *testing.T) {
	clean, err := wordCountJob(corruptionCfg(t.TempDir())).Run(context.Background(), corruptionLines)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var once sync.Once
	var corrupted string
	SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMapreduceSpillReplay) {
			// First replay about to happen: all spills are on disk.
			once.Do(func() {
				paths := spillFiles(t, dir)
				if len(paths) == 0 {
					t.Error("no spill files written before replay")
					return
				}
				corrupted = paths[0]
				truncateFile(t, corrupted, 5) // cut into the 20-byte footer
			})
		}
		return nil
	})
	defer SetFaultHook(nil)

	res, err := wordCountJob(corruptionCfg(dir)).Run(context.Background(), corruptionLines)
	if err != nil {
		t.Fatalf("corruption not recovered: %v", err)
	}
	if corrupted == "" {
		t.Fatal("no spill file was corrupted; test exercised nothing")
	}
	// Quarantined files are moved out of the ephemeral per-run spill root
	// into SpillDir so they outlive the run.
	q, err := filepath.Glob(filepath.Join(dir, "*"+filepath.Base(corrupted)+".quarantined"))
	if err != nil || len(q) != 1 {
		t.Fatalf("corrupt spill not quarantined into SpillDir: matches=%v err=%v", q, err)
	}
	if res.Counters.CorruptSpills != 1 || res.Counters.ShardReruns != 1 {
		t.Fatalf("recovery counters: CorruptSpills=%d ShardReruns=%d, want 1/1",
			res.Counters.CorruptSpills, res.Counters.ShardReruns)
	}
	got := *res
	got.Counters.CorruptSpills, got.Counters.ShardReruns = 0, 0
	if !reflect.DeepEqual(&got, clean) {
		t.Fatalf("recovered result differs from clean run:\ngot  %+v\nwant %+v", &got, clean)
	}
}

// TestSpillPersistentCorruptionFails corrupts every spill file at every
// replay: the one bounded shard re-execution cannot help, so the job must
// fail rather than loop.
func TestSpillPersistentCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMapreduceSpillReplay) {
			for _, p := range spillFiles(t, dir) {
				if fi, err := os.Stat(p); err == nil && fi.Size() > 10 {
					truncateFile(t, p, fi.Size()-10)
				}
			}
		}
		return nil
	})
	defer SetFaultHook(nil)

	_, err := wordCountJob(corruptionCfg(dir)).Run(context.Background(), corruptionLines)
	if err == nil {
		t.Fatal("persistently corrupt spills did not fail the job")
	}
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("err = %v, want ErrSpillCorrupt", err)
	}
	if !strings.Contains(err.Error(), "corrupted its spills again") {
		t.Fatalf("err = %v, want the bounded-rerun failure", err)
	}
}
