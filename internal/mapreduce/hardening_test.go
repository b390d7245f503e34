package mapreduce

import (
	"baywatch/internal/faultinject"

	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPoisonedInputSkippedWithinBudget: a failing input is skipped and
// counted when MaxFailedInputs allows it, and whatever it emitted before
// failing does not leak; the rest of the job completes.
func TestPoisonedInputSkippedWithinBudget(t *testing.T) {
	job := NewJob[string, string, int, kv](JobConfig{Mappers: 3, MaxFailedInputs: 1},
		func(line string, emit Emitter[string, int]) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			if line == "poison" {
				return errors.New("fails after emitting")
			}
			return nil
		},
		func(key string, values []int, emit func(kv)) error {
			emit(kv{Key: key, Count: len(values)})
			return nil
		},
	)
	res, err := job.Run(context.Background(), []string{"a", "poison", "a b"})
	if err != nil {
		t.Fatalf("poisoned input within budget should be skipped: %v", err)
	}
	counts := map[string]int{}
	for _, o := range res.Outputs {
		counts[o.Key] = o.Count
	}
	want := map[string]int{"a": 2, "b": 1}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("counts = %v, want %v", counts, want)
	}
	if res.Counters.FailedInputs != 1 {
		t.Errorf("FailedInputs = %d, want 1", res.Counters.FailedInputs)
	}
}

// TestPoisonedInputsBeyondBudgetAbort: one failure more than
// MaxFailedInputs aborts the job with the underlying error.
func TestPoisonedInputsBeyondBudgetAbort(t *testing.T) {
	job := NewJob[int, int, int, int](JobConfig{Mappers: 1, MaxFailedInputs: 1},
		func(n int, emit Emitter[int, int]) error {
			if n < 0 {
				return fmt.Errorf("bad record %d", n)
			}
			emit(n, 1)
			return nil
		},
		func(key int, values []int, emit func(int)) error {
			emit(key)
			return nil
		},
	)
	_, err := job.Run(context.Background(), []int{1, -1, 2, -2, 3})
	if err == nil {
		t.Fatal("expected abort when failed inputs exceed budget")
	}
	if !strings.Contains(err.Error(), "bad record") {
		t.Fatalf("error should carry the record failure: %v", err)
	}
}

// TestMapPanicIsolatedAsFailedInput: a panicking map call is converted to
// a failure and charged against the budget instead of crashing the
// process.
func TestMapPanicIsolatedAsFailedInput(t *testing.T) {
	job := NewJob[int, int, int, int](JobConfig{Mappers: 2, MaxFailedInputs: 1},
		func(n int, emit Emitter[int, int]) error {
			if n == 13 {
				panic("unlucky record")
			}
			emit(n, 1)
			return nil
		},
		func(key int, values []int, emit func(int)) error {
			emit(key)
			return nil
		},
	)
	res, err := job.Run(context.Background(), []int{1, 13, 2})
	if err != nil {
		t.Fatalf("panic should be isolated: %v", err)
	}
	if res.Counters.FailedInputs != 1 {
		t.Errorf("FailedInputs = %d, want 1", res.Counters.FailedInputs)
	}
	if len(res.Outputs) != 2 {
		t.Errorf("outputs = %v, want the two surviving records", res.Outputs)
	}
}

// TestMapPanicWithoutBudgetAborts: with no failure budget the panic
// surfaces as a job error (not a process crash).
func TestMapPanicWithoutBudgetAborts(t *testing.T) {
	job := NewJob[int, int, int, int](JobConfig{Mappers: 1},
		func(n int, emit Emitter[int, int]) error {
			panic("boom")
		},
		func(key int, values []int, emit func(int)) error {
			emit(key)
			return nil
		},
	)
	_, err := job.Run(context.Background(), []int{1})
	if err == nil || !strings.Contains(err.Error(), "map panic") {
		t.Fatalf("expected map panic error, got %v", err)
	}
}

// TestReducePanicSurfacesAsError: reduce panics become job errors.
func TestReducePanicSurfacesAsError(t *testing.T) {
	job := NewJob[int, int, int, int](JobConfig{},
		func(n int, emit Emitter[int, int]) error {
			emit(n, n)
			return nil
		},
		func(key int, values []int, emit func(int)) error {
			panic("reduce boom")
		},
	)
	_, err := job.Run(context.Background(), []int{1, 2})
	if err == nil || !strings.Contains(err.Error(), "reduce panic") {
		t.Fatalf("expected reduce panic error, got %v", err)
	}
}

// TestCancellationMidReduce: cancelling the context while reducers run
// returns promptly with ctx.Err.
func TestCancellationMidReduce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	job := NewJob[int, int, int, int](JobConfig{Reducers: 1},
		func(n int, emit Emitter[int, int]) error {
			emit(n, n)
			return nil
		},
		func(key int, values []int, emit func(int)) error {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return ctx.Err()
		},
	)
	done := make(chan error, 1)
	go func() {
		_, err := job.Run(ctx, []int{1, 2, 3, 4})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// --- footed-file integrity ---------------------------------------------

// footedFile is one kind of file RunExec passes between processes: spill
// files, and the record files that carry input shards and partition
// outputs. Both go through the one footer codec, and every corruption
// test runs over both.
type footedFile struct {
	name  string
	write func(path string) error
	// read decodes path; a corrupt file must decode to the zero value.
	read func(path string) (any, error)
	want any
}

func footedFiles() []footedFile {
	var g group[string, int]
	g.add("a", 1)
	g.add("b", 3)
	g.add("a", 2)
	recs := []kv{{"a", 1}, {"b", 2}, {"c", 3}}
	return []footedFile{
		{
			name:  "spill",
			write: func(path string) error { return writeSpillFile(path, &g) },
			read: func(path string) (any, error) {
				var got group[string, int]
				err := replaySpill(path, &got)
				return got, err
			},
			want: g,
		},
		{
			name:  "records",
			write: func(path string) error { return writeRecords(path, recs) },
			read: func(path string) (any, error) {
				got, err := readRecords[kv](path)
				return got, err
			},
			want: recs,
		},
	}
}

// writeFooted writes f's known file and returns its path and bytes.
func writeFooted(t *testing.T, f footedFile) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), f.name+".gob")
	if err := f.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// expectCorrupt stores data at path and asserts that f's reader rejects
// it with ErrSpillCorrupt and returns nothing.
func expectCorrupt(t *testing.T, f footedFile, path string, data []byte, what string) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := f.read(path)
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("%s: err = %v, want ErrSpillCorrupt", what, err)
	}
	if !reflect.ValueOf(got).IsZero() {
		t.Fatalf("%s: corrupt file leaked data: %v", what, got)
	}
}

func TestSpillRoundTripValidates(t *testing.T) {
	for _, f := range footedFiles() {
		t.Run(f.name, func(t *testing.T) {
			path, _ := writeFooted(t, f)
			got, err := f.read(path)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, f.want) {
				t.Fatalf("read = %v, want %v", got, f.want)
			}
		})
	}
}

func TestSpillTruncationDetected(t *testing.T) {
	for _, f := range footedFiles() {
		t.Run(f.name, func(t *testing.T) {
			path, data := writeFooted(t, f)
			// Into the footer, just before it, shorter than it, and empty.
			for _, keep := range []int{len(data) - 1, len(data) - footerLen - 1, footerLen - 1, 0} {
				expectCorrupt(t, f, path, data[:keep], fmt.Sprintf("truncation to %d bytes", keep))
			}
		})
	}
}

func TestSpillBitflipDetected(t *testing.T) {
	for _, f := range footedFiles() {
		t.Run(f.name, func(t *testing.T) {
			path, data := writeFooted(t, f)
			// Flip a payload byte; the checksum must catch it even when the
			// gob stream still decodes.
			data[len(data)-footerLen-3] ^= 0x40
			expectCorrupt(t, f, path, data, "bitflip")
		})
	}
}

func TestSpillBadMagicDetected(t *testing.T) {
	for _, f := range footedFiles() {
		t.Run(f.name, func(t *testing.T) {
			path, data := writeFooted(t, f)
			copy(data[len(data)-footerLen:], "XXXX")
			expectCorrupt(t, f, path, data, "bad magic")
		})
	}
}

// TestSpillFaultInjection: an injected failure at the spill-write or
// spill-replay fault point surfaces from the codec as the injected error,
// and a failed replay merges nothing.
func TestSpillFaultInjection(t *testing.T) {
	var g, replayed group[string, int]
	g.add("a", 1)
	path := filepath.Join(t.TempDir(), "spill.gob")
	if err := writeSpillFile(path, &g); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		point faultinject.Point
		op    func() error
	}{
		{faultinject.PointMapreduceSpillWrite, func() error { return writeSpillFile(path, &g) }},
		{faultinject.PointMapreduceSpillReplay, func() error { return replaySpill(path, &replayed) }},
	} {
		t.Run(string(tc.point), func(t *testing.T) {
			injected := errors.New("disk full")
			SetFaultHook(func(p string) error {
				if p == string(tc.point) {
					return injected
				}
				return nil
			})
			t.Cleanup(func() { SetFaultHook(nil) })
			if err := tc.op(); !errors.Is(err, injected) {
				t.Fatalf("expected injected error at %s, got %v", tc.point, err)
			}
			if len(replayed.order) != 0 {
				t.Fatalf("failed replay merged %v", replayed.order)
			}
		})
	}
}
