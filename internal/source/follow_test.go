package source

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"baywatch/internal/faultinject"
)

// followerUnderTest builds a fast-polling follower over path.
func followerUnderTest(path string) *FileFollower {
	return &FileFollower{Path: path, SourceName: "proxy", PollInterval: time.Millisecond}
}

// lineSeq renders n well-formed log lines with consecutive timestamps
// starting at base, so tests can assert exact delivery order via tsOf.
func lineSeq(base int64, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(logLine(base+int64(i), "10.0.0.1", "evil.example", "/cb"))
	}
	return sb.String()
}

func tsRange(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

func sameTS(t *testing.T, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d events, want %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d has ts %d, want %d", i, got[i], want[i])
		}
	}
}

// TestFollowRotationDeliversTailThenNewFile covers the rename-rotation
// race the faultinject.PointSourceFollowRotate window guards: the old
// file's unterminated final line is delivered (the writer finished it,
// the newline never landed), then tailing restarts at the new file.
func TestFollowRotationDeliversTailThenNewFile(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "proxy.log")
	part1 := lineSeq(1000, 4) + strings.TrimSuffix(logLine(1004, "10.0.0.1", "evil.example", "/cb"), "\n")
	part2 := lineSeq(2000, 5)
	writeFile(t, logPath, part1)

	c := &collectSink{stopAt: 10}
	c.onDeliver = func(total int) {
		if total == 4 { // the terminated prefix landed; rotate under the tailer
			if err := os.Rename(logPath, logPath+".1"); err != nil {
				t.Error(err)
			}
			writeFile(t, logPath, part2)
		}
	}
	err := followerUnderTest(logPath).Run(context.Background(), Position{}, c)
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), append(tsRange(1000, 5), tsRange(2000, 5)...))
	if c.pos.Records != 10 {
		t.Fatalf("position = %d records, want 10", c.pos.Records)
	}
}

// TestFollowCopytruncateRestartsAtZero covers the in-place shrink
// (logrotate copytruncate) behind faultinject.PointSourceFollowTruncate:
// the follower restarts at offset 0 of the same inode.
func TestFollowCopytruncateRestartsAtZero(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 5))

	c := &collectSink{stopAt: 8}
	c.onDeliver = func(total int) {
		if total == 5 { // O_TRUNC rewrite: same inode, size below the read offset
			writeFile(t, logPath, lineSeq(2000, 3))
		}
	}
	err := followerUnderTest(logPath).Run(context.Background(), Position{}, c)
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), append(tsRange(1000, 5), tsRange(2000, 3)...))
}

// TestFollowMidLineWriteAndResume pins the line-boundary invariant: a
// partially written line is never delivered, the committed offset stays
// at the last newline, and a restarted follower re-reads the whole line
// once it completes — no half-record events, no duplicates.
func TestFollowMidLineWriteAndResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "proxy.log")
	line3 := logLine(1002, "10.0.0.1", "evil.example", "/cb")
	cut := len(line3) / 2
	writeFile(t, logPath, lineSeq(1000, 2)+line3[:cut])

	c := &collectSink{stopAt: 2}
	err := followerUnderTest(logPath).Run(context.Background(), Position{}, c)
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), tsRange(1000, 2))
	if wantOff := int64(2 * len(line3)); c.pos.Offset != wantOff {
		t.Fatalf("offset = %d, want %d (just past the last delivered newline)", c.pos.Offset, wantOff)
	}

	// The writer finishes the line and adds another; the follower resumes
	// from the committed position as after a daemon restart.
	appendFile(t, logPath, line3[cut:]+logLine(1003, "10.0.0.1", "evil.example", "/cb"))
	c2 := &collectSink{pos: c.pos, stopAt: 2}
	err = followerUnderTest(logPath).Run(context.Background(), c.pos, c2)
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("resumed run ended with %v, want scripted stop", err)
	}
	sameTS(t, c2.tsOf(), tsRange(1002, 2))
	if c2.pos.Records != 4 {
		t.Fatalf("resumed position = %d records, want 4", c2.pos.Records)
	}
}

// TestFollowOverlongLineSkipped: a line past MaxLineBytes is discarded up
// to its newline and counted skipped; tailing continues cleanly after it.
func TestFollowOverlongLineSkipped(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "proxy.log")
	huge := strings.Repeat("x", 150<<10) // spans multiple 64 KiB read chunks
	writeFile(t, logPath, lineSeq(1000, 1)+huge+"\n"+lineSeq(2000, 1))

	f := followerUnderTest(logPath)
	f.MaxLineBytes = 1024
	c := &collectSink{stopAt: 2}
	err := f.Run(context.Background(), Position{}, c)
	if !errors.Is(err, sinkStop{}) {
		t.Fatalf("run ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), []int64{1000, 2000})
	if c.skipped != 1 {
		t.Fatalf("skipped = %d, want 1 (the overlong line)", c.skipped)
	}
}

// TestFollowTransientFaultsResume injects one failure at
// faultinject.PointSourceFollowRead and one at
// faultinject.PointSourceFollowOpen, restarting from the delivered
// position each time the way the supervisor does: everything lands
// exactly once.
func TestFollowTransientFaultsResume(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "proxy.log")
	writeFile(t, logPath, lineSeq(1000, 2))

	errInjected := fmt.Errorf("injected")
	sched := faultinject.New(7)
	sched.FailTransient(faultinject.PointSourceFollowRead.Keyed("proxy"), 2, 1, errInjected)
	sched.FailTransient(faultinject.PointSourceFollowOpen.Keyed("proxy"), 2, 1, errInjected)
	t.Cleanup(faultinject.Install(sched.Hook()))

	c := &collectSink{stopAt: 6}
	f := followerUnderTest(logPath)
	// Run 1: the first read delivers both lines, the second read fails.
	err := f.Run(context.Background(), Position{}, c)
	if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "read") {
		t.Fatalf("run 1 ended with %v, want injected read failure", err)
	}
	appendFile(t, logPath, lineSeq(2000, 4))
	// Run 2: the reopen itself fails.
	if err := f.Run(context.Background(), c.pos, c); !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "open") {
		t.Fatalf("run 2 ended with %v, want injected open failure", err)
	}
	// Run 3: clean; the appended lines land once, nothing is redelivered.
	if err := f.Run(context.Background(), c.pos, c); !errors.Is(err, sinkStop{}) {
		t.Fatalf("run 3 ended with %v, want scripted stop", err)
	}
	sameTS(t, c.tsOf(), append(tsRange(1000, 2), tsRange(2000, 4)...))
}
