package mrx

import (
	"os"
	"testing"

	"baywatch/internal/faultinject"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, resumed, err := openJournal(dir, "jobA")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("fresh directory reported resumed")
	}
	for _, task := range []int{0, 2} {
		if err := j.record(task); err != nil {
			t.Fatal(err)
		}
	}

	j2, resumed, err := openJournal(dir, "jobA")
	if err != nil {
		t.Fatal(err)
	}
	if !resumed {
		t.Fatal("journalled directory not reported resumed")
	}
	if len(j2.state.Done) != 2 || !j2.state.Done[0] || !j2.state.Done[2] {
		t.Fatalf("task records not recovered: %+v", j2.state.Done)
	}
}

func TestJournalForeignJobQuarantined(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, "jobA")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(0); err != nil {
		t.Fatal(err)
	}
	j2, resumed, err := openJournal(dir, "jobB")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("foreign-job journal reported resumed")
	}
	if len(j2.state.Done) != 0 {
		t.Fatal("foreign-job records adopted")
	}
	if _, err := os.Stat(journalPath(dir) + ".quarantined"); err != nil {
		t.Fatalf("foreign journal not quarantined: %v", err)
	}
}

func TestJournalCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, resumed, err := openJournal(dir, "jobA")
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("corrupt journal reported resumed")
	}
	if _, err := os.Stat(journalPath(dir) + ".quarantined"); err != nil {
		t.Fatalf("corrupt journal not quarantined: %v", err)
	}
}

func TestJournalCommitRollsBackOnFault(t *testing.T) {
	dir := t.TempDir()
	j, _, err := openJournal(dir, "jobA")
	if err != nil {
		t.Fatal(err)
	}
	// A failed commit must not leave the in-memory state claiming the
	// task is journalled (PointMrxJournalWrite guards the whole chain).
	SetFaultHook(func(point string) error {
		if point == string(faultinject.PointMrxJournalWrite) {
			return os.ErrPermission
		}
		return nil
	})
	defer SetFaultHook(nil)
	if err := j.record(3); err == nil {
		t.Fatal("record succeeded despite journal-write fault")
	}
	if j.state.Done[3] {
		t.Fatal("failed commit left the task record in memory")
	}
	SetFaultHook(nil)
	if err := j.record(3); err != nil {
		t.Fatal(err)
	}
}
