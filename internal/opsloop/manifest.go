// Manifest-journalled persistence for the operations loop.
//
// The loop's durable state is committed through a write-ahead manifest:
// each ingested day is persisted as
//
//  1. summaries/day-NNNNNN.bin   — the day's activity summaries, with a
//     CRC32 footer (timeseries.AppendChecksum),
//  2. novelty-NNNNNN.json        — the novelty store snapshot after the
//     day's runs,
//  3. manifest.json              — the commit record: day counter, the
//     current novelty snapshot, and the
//     committed day-file list,
//
// each written tmp → write → fsync → rename (plus a directory fsync), in
// that order. The manifest rename is the commit point: a crash anywhere
// before it leaves files the manifest does not reference, and recovery
// quarantines them; a crash after it leaves at most a stale novelty
// snapshot, which recovery deletes. The novelty snapshot named by the
// manifest therefore never runs ahead of the persisted history.
//
// Recovery (run by New) reconciles the day counter from the manifest —
// never from a directory listing — verifies every committed day file's
// checksum, and moves anything truncated, corrupt, or uncommitted to
// StateDir/quarantine/ with a logged warning instead of aborting; only a
// corrupt manifest or novelty snapshot that cannot be moved aside fails
// New, since recovery would write over or sweep it. A state directory
// from before the manifest era is adopted as-is: its day files and
// novelty.json become the first manifest.
package opsloop

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"baywatch/internal/durable"
	"baywatch/internal/faultinject"
	"baywatch/internal/novelty"
	"baywatch/internal/timeseries"
)

// manifestPoints and dayPoints are the registered points of each step of
// the manifest's and the day files' atomic writes.
var (
	manifestPoints = durable.Points{
		Create:  faultinject.PointOpsloopManifestCreate,
		Write:   faultinject.PointOpsloopManifestWrite,
		Sync:    faultinject.PointOpsloopManifestSync,
		Rename:  faultinject.PointOpsloopManifestRename,
		Dirsync: faultinject.PointOpsloopManifestDirsync,
	}
	dayPoints = durable.Points{
		Create:  faultinject.PointOpsloopDayCreate,
		Write:   faultinject.PointOpsloopDayWrite,
		Sync:    faultinject.PointOpsloopDaySync,
		Rename:  faultinject.PointOpsloopDayRename,
		Dirsync: faultinject.PointOpsloopDayDirsync,
	}
)

// manifestEntry records one committed day.
type manifestEntry struct {
	// Day is the day number (1-based, monotonic).
	Day int `json:"day"`
	// File is the day file's name under summaries/.
	File string `json:"file"`
	// Pairs is the number of activity summaries the file holds.
	Pairs int `json:"pairs"`
}

// manifest is the loop's commit record.
type manifest struct {
	Version int `json:"version"`
	// Days is the highest committed day number; the day counter is
	// reconciled from this field, never from a directory listing.
	Days int `json:"days"`
	// Novelty names the committed novelty snapshot file under StateDir
	// ("" before the first report).
	Novelty string `json:"novelty"`
	// Entries lists the committed day files.
	Entries []manifestEntry `json:"entries"`
}

// Recovery describes what New found and repaired while opening the state
// directory.
type Recovery struct {
	// Quarantined lists files moved to StateDir/quarantine/.
	Quarantined []string
	// Warnings are the human-readable recovery notes, one per repair.
	Warnings []string
	// Reconstructed reports that the manifest was rebuilt from the
	// directory contents (fresh directory, pre-manifest layout, or a
	// corrupt manifest).
	Reconstructed bool
}

func manifestPath(dir string) string      { return filepath.Join(dir, "manifest.json") }
func dayFileName(day int) string          { return fmt.Sprintf("day-%06d.bin", day) }
func noveltyFileName(day int) string      { return fmt.Sprintf("novelty-%06d.json", day) }
func legacyNoveltyPath(dir string) string { return filepath.Join(dir, "novelty.json") }

// loadManifest reads the manifest; ok is false when none exists. A
// malformed manifest is returned as an error wrapping errManifestCorrupt
// so recovery can quarantine and reconstruct.
var errManifestCorrupt = errors.New("opsloop: corrupt manifest")

func loadManifest(dir string) (man *manifest, ok bool, err error) {
	data, err := os.ReadFile(manifestPath(dir))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("opsloop: read manifest: %w", err)
	}
	man = &manifest{}
	if err := json.Unmarshal(data, man); err != nil {
		return nil, false, fmt.Errorf("%w: %v", errManifestCorrupt, err)
	}
	return man, true, nil
}

func writeManifest(dir string, man *manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("opsloop: marshal manifest: %w", err)
	}
	if err := durable.WriteFile(manifestPath(dir), data, manifestPoints); err != nil {
		return fmt.Errorf("opsloop: %w", err)
	}
	return nil
}

// warnf records a recovery warning and logs it.
func (l *Loop) warnf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.rec.Warnings = append(l.rec.Warnings, msg)
	if l.cfg.Logf != nil {
		l.cfg.Logf("opsloop: %s", msg)
	}
}

// quarantine moves path under StateDir/quarantine/ (never deleting data)
// and records why. A file that cannot be moved aside stays where it is,
// with a warning, and the error is returned.
func (l *Loop) quarantine(path, reason string) error {
	dst, err := durable.Quarantine(l.cfg.StateDir, path)
	if err != nil {
		l.warnf("cannot quarantine %s: %v", path, err)
		return err
	}
	l.rec.Quarantined = append(l.rec.Quarantined, dst)
	l.warnf("quarantined %s: %s", filepath.Base(path), reason)
	return nil
}

// recover reconciles the loop's in-memory state with the state directory:
// manifest, novelty snapshot, and committed history.
func (l *Loop) recover() error {
	dir := l.cfg.StateDir
	durable.RemoveTemp(dir)
	durable.RemoveTemp(historyDir(dir))

	man, ok, err := loadManifest(dir)
	if err != nil {
		if !errors.Is(err, errManifestCorrupt) {
			return err
		}
		// A manifest that cannot be moved aside is not rebuilt over.
		if qerr := l.quarantine(manifestPath(dir), err.Error()); qerr != nil {
			return fmt.Errorf("%w; cannot quarantine it: %w", err, qerr)
		}
		ok = false
	}
	if ok {
		l.man = man
		l.loadCommittedHistory()
	} else {
		if err := l.reconstructManifest(); err != nil {
			return err
		}
	}

	// Novelty snapshot: the file the manifest names, falling back to an
	// empty store. A corrupt snapshot is quarantined, not fatal — the loop
	// then re-reports old cases rather than refusing to run.
	l.store = novelty.NewStore()
	if l.man.Novelty != "" {
		path := filepath.Join(dir, l.man.Novelty)
		store, err := novelty.Load(path)
		if err != nil {
			// Unnamed by the manifest, the snapshot would be swept as
			// stale; one that cannot be moved aside fails New instead.
			if qerr := l.quarantine(path, fmt.Sprintf("unreadable novelty snapshot (%v); novelty state reset", err)); qerr != nil {
				return fmt.Errorf("opsloop: %w; cannot quarantine it: %w", err, qerr)
			}
			l.man.Novelty = ""
		} else {
			l.store = store
		}
	}

	l.sweepOrphans()
	l.days = l.man.Days

	// Persist the reconciled view so the next open starts clean.
	return writeManifest(dir, l.man)
}

// loadCommittedHistory loads every day file the manifest references,
// verifying checksums; a missing or corrupt file is quarantined and its
// entry dropped (the day counter is not rewound — day numbers stay
// monotonic).
func (l *Loop) loadCommittedHistory() {
	dir := historyDir(l.cfg.StateDir)
	kept := l.man.Entries[:0]
	for _, e := range l.man.Entries {
		path := filepath.Join(dir, e.File)
		sums, err := readDayFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				l.warnf("committed day file %s is missing; its history is lost", e.File)
			} else {
				l.quarantine(path, fmt.Sprintf("corrupt committed day file (%v)", err))
			}
			continue
		}
		l.history = append(l.history, sums...)
		kept = append(kept, e)
	}
	l.man.Entries = kept
}

// reconstructManifest adopts a pre-manifest (or fresh) state directory:
// existing day files become committed entries and a legacy novelty.json
// becomes the committed snapshot.
func (l *Loop) reconstructManifest() error {
	l.rec.Reconstructed = true
	l.man = &manifest{Version: 1}
	dir := historyDir(l.cfg.StateDir)
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("opsloop: read history dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		var day int
		if _, err := fmt.Sscanf(name, "day-%d.bin", &day); err != nil {
			l.quarantine(filepath.Join(dir, name), "unrecognized file in summaries/")
			continue
		}
		sums, err := readDayFile(filepath.Join(dir, name))
		if err != nil {
			l.quarantine(filepath.Join(dir, name), fmt.Sprintf("corrupt day file (%v)", err))
			continue
		}
		l.history = append(l.history, sums...)
		l.man.Entries = append(l.man.Entries, manifestEntry{Day: day, File: name, Pairs: len(sums)})
		if day > l.man.Days {
			l.man.Days = day
		}
	}
	if len(names) > 0 {
		l.warnf("adopted pre-manifest state directory (%d day files)", len(l.man.Entries))
	}
	// Prefer the newest versioned novelty snapshot (present when a
	// corrupt manifest forced the rebuild); fall back to the legacy file.
	for day := l.man.Days; day >= 1; day-- {
		if _, err := os.Stat(filepath.Join(l.cfg.StateDir, noveltyFileName(day))); err == nil {
			l.man.Novelty = noveltyFileName(day)
			return nil
		}
	}
	if _, err := os.Stat(legacyNoveltyPath(l.cfg.StateDir)); err == nil {
		l.man.Novelty = filepath.Base(legacyNoveltyPath(l.cfg.StateDir))
	}
	return nil
}

// sweepOrphans quarantines day files the manifest does not reference
// (a crash interrupted their commit; the operator will re-ingest that
// day) and deletes unreferenced novelty snapshots.
func (l *Loop) sweepOrphans() {
	committed := make(map[string]struct{}, len(l.man.Entries))
	for _, e := range l.man.Entries {
		committed[e.File] = struct{}{}
	}
	hdir := historyDir(l.cfg.StateDir)
	if entries, err := os.ReadDir(hdir); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if _, ok := committed[e.Name()]; !ok {
				l.quarantine(filepath.Join(hdir, e.Name()),
					"day file not committed by the manifest; re-ingest that day")
			}
		}
	}
	if entries, err := os.ReadDir(l.cfg.StateDir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || name == l.man.Novelty {
				continue
			}
			if strings.HasPrefix(name, "novelty-") && strings.HasSuffix(name, ".json") ||
				(name == "novelty.json" && l.man.Novelty != "novelty.json") {
				os.Remove(filepath.Join(l.cfg.StateDir, name))
			}
		}
	}
}

// commitDay makes one ingested day durable: day file → novelty snapshot →
// manifest commit. On success the in-memory manifest reflects the new
// state; on error (or crash) the durable state is unchanged as far as
// recovery is concerned, because the manifest still references only the
// previous day.
func (l *Loop) commitDay(day int, sums []*timeseries.ActivitySummary) error {
	payload := encodeDaySummaries(sums)
	file := dayFileName(day)
	if err := durable.WriteFile(filepath.Join(historyDir(l.cfg.StateDir), file),
		timeseries.AppendChecksum(payload), dayPoints); err != nil {
		return fmt.Errorf("opsloop: %w", err)
	}

	if err := faultinject.Check(faultinject.PointOpsloopNoveltySave, ""); err != nil {
		return fmt.Errorf("opsloop: novelty save: %w", err)
	}
	nov := noveltyFileName(day)
	if err := l.store.Save(filepath.Join(l.cfg.StateDir, nov)); err != nil {
		return err
	}

	next := *l.man
	next.Days = day
	next.Novelty = nov
	next.Entries = append(append([]manifestEntry(nil), l.man.Entries...),
		manifestEntry{Day: day, File: file, Pairs: len(sums)})
	if err := writeManifest(l.cfg.StateDir, &next); err != nil {
		return err
	}
	prevNovelty := l.man.Novelty
	l.man = &next

	// Post-commit crash point: everything after this line is cleanup.
	_ = faultinject.Check(faultinject.PointOpsloopCommitDone, "")
	if prevNovelty != "" && prevNovelty != nov {
		os.Remove(filepath.Join(l.cfg.StateDir, prevNovelty))
	}
	return nil
}

// encodeDaySummaries serializes one day's summaries with the compact
// binary codec, length-prefixed per record.
func encodeDaySummaries(sums []*timeseries.ActivitySummary) []byte {
	var buf []byte
	for _, as := range sums {
		blob := as.Marshal()
		buf = append(buf, byte(len(blob)), byte(len(blob)>>8), byte(len(blob)>>16), byte(len(blob)>>24))
		buf = append(buf, blob...)
	}
	return buf
}

// decodeDaySummaries parses the length-prefixed record payload.
func decodeDaySummaries(data []byte) ([]*timeseries.ActivitySummary, error) {
	var out []*timeseries.ActivitySummary
	for len(data) > 0 {
		if len(data) < 4 {
			return nil, fmt.Errorf("truncated header")
		}
		n := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
		data = data[4:]
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("bad record length %d", n)
		}
		as, err := timeseries.UnmarshalActivitySummary(data[:n])
		if err != nil {
			return nil, err
		}
		out = append(out, as)
		data = data[n:]
	}
	return out, nil
}

// readDayFile loads one day file, verifying its checksum footer. Files
// from before the footer era parse without one.
func readDayFile(path string) ([]*timeseries.ActivitySummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := timeseries.VerifyChecksum(data)
	if errors.Is(err, timeseries.ErrNoChecksum) {
		payload = data
	} else if err != nil {
		return nil, err
	}
	return decodeDaySummaries(payload)
}
