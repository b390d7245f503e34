package mrx

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"baywatch/internal/faultinject"
)

// The coordinator's write-ahead recovery journal. Every completed task is
// journalled before it counts as done (same commit discipline as the
// opsloop manifest): the journal file is rewritten tmp → write → fsync →
// rename → dirsync, so a coordinator killed at any instruction restarts
// into either the previous or the next journal state, never a torn one.
// A restarted coordinator replays the journal, verifies that each
// recorded task's output file still exists, and re-runs only what is
// missing.

// journalVersion guards against reading a layout this coordinator does
// not write; a journal of another version is quarantined, not adopted.
const journalVersion = 2

// journalState is the serialized journal.
type journalState struct {
	Version int `json:"version"`
	// Job is the registered job name; a journal for a different job is
	// stale scratch and is discarded.
	Job string `json:"job"`
	// Done holds the indices of the completed tasks.
	Done map[int]bool `json:"done"`
}

// journal is the coordinator's handle on the recovery journal.
type journal struct {
	path  string
	state journalState
}

func journalPath(scratchDir string) string {
	return filepath.Join(scratchDir, "journal.json")
}

// openJournal loads the journal from the scratch directory, or starts a
// fresh one. resumed reports whether a usable prior journal was found; a
// corrupt, foreign-job or other-version journal is quarantined (renamed
// aside), not fatal — the job then runs from scratch.
func openJournal(scratchDir, job string) (*journal, bool, error) {
	j := &journal{
		path:  journalPath(scratchDir),
		state: journalState{Version: journalVersion, Job: job, Done: make(map[int]bool)},
	}
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return j, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("mrx: read journal: %w", err)
	}
	var prior journalState
	if uerr := json.Unmarshal(data, &prior); uerr != nil ||
		prior.Version != journalVersion || prior.Job != job {
		os.Rename(j.path, j.path+".quarantined")
		return j, false, nil
	}
	if prior.Done == nil {
		prior.Done = make(map[int]bool)
	}
	j.state = prior
	return j, true, nil
}

// record journals a completed task write-ahead.
func (j *journal) record(index int) error {
	j.state.Done[index] = true
	if err := j.commit(); err != nil {
		delete(j.state.Done, index)
		return err
	}
	return nil
}

// commit rewrites the journal atomically. The single PointMrxJournalWrite
// fault point covers the whole chain: a crash here must leave either the
// old or the new journal in place, which the rename guarantees.
func (j *journal) commit() error {
	if err := faultCheck(faultinject.PointMrxJournalWrite); err != nil {
		return fmt.Errorf("mrx: journal write: %w", err)
	}
	data, err := json.MarshalIndent(&j.state, "", "  ")
	if err != nil {
		return fmt.Errorf("mrx: marshal journal: %w", err)
	}
	tmp := j.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("mrx: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("mrx: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("mrx: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("mrx: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		return fmt.Errorf("mrx: rename %s: %w", j.path, err)
	}
	if err := syncDir(filepath.Dir(j.path)); err != nil {
		return fmt.Errorf("mrx: dirsync %s: %w", filepath.Dir(j.path), err)
	}
	return nil
}

// syncDir fsyncs a directory so the journal rename survives power loss;
// filesystems without directory fsync are tolerated (same policy as
// opsloop).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
