package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

type kv struct {
	Key   string
	Count int
}

// wordCountJob counts the words of each line: one output per line, keyed
// by the line itself.
func wordCountJob(cfg JobConfig) *Job[string, kv] {
	return NewJob(cfg,
		func(line string) string { return line },
		func(line string) (kv, error) {
			return kv{Key: line, Count: len(strings.Fields(line))}, nil
		},
	)
}

func runWordCount(t *testing.T, cfg JobConfig, lines []string) *Result[kv] {
	t.Helper()
	res, err := wordCountJob(cfg).Run(context.Background(), lines)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	got := map[string]int{}
	for _, o := range runWordCount(t, JobConfig{}, lines).Outputs {
		if _, dup := got[o.Key]; dup {
			t.Fatalf("line %q counted twice", o.Key)
		}
		got[o.Key] = o.Count
	}
	want := map[string]int{"the quick brown fox": 4, "the lazy dog": 3, "the quick dog": 3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEmptyInput(t *testing.T) {
	res := runWordCount(t, JobConfig{}, nil)
	if len(res.Outputs) != 0 {
		t.Errorf("outputs = %v, want empty", res.Outputs)
	}
	if res.Counters != (Counters{}) {
		t.Errorf("counters = %+v", res.Counters)
	}
}

// TestSingleWorkerMatchesParallel: the result — outputs, their order and
// the counters — does not depend on how many workers run the partitions.
func TestSingleWorkerMatchesParallel(t *testing.T) {
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%29))
	}
	serial := runWordCount(t, JobConfig{Workers: 1}, lines)
	for _, workers := range []int{2, 4, 8} {
		if parallel := runWordCount(t, JobConfig{Workers: workers}, lines); !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%d workers: result differs from one worker", workers)
		}
	}
}

// TestDeterministicOutputOrder pins Run's documented order: by partition
// (FNV-1a of the key modulo 2^PartitionBits), then by input.
func TestDeterministicOutputOrder(t *testing.T) {
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("k%d k%d", (i*7)%50, (i*13)%61))
	}
	const bits = 3
	var want []string
	for p := 0; p < 1<<bits; p++ {
		for _, line := range lines {
			if partitionOf(line, bits) == p {
				want = append(want, line)
			}
		}
	}

	job := wordCountJob(JobConfig{Workers: 4, PartitionBits: bits})
	for run := 0; run < 5; run++ {
		res, err := job.Run(context.Background(), lines)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(res.Outputs))
		for i, o := range res.Outputs {
			got[i] = o.Key
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: output order\ngot  %v\nwant %v", run, got, want)
		}
	}
}

func TestCounters(t *testing.T) {
	job := NewJob(JobConfig{MaxFailed: 1},
		func(line string) string { return line },
		func(line string) (int, error) {
			if line == "bad" {
				return 0, errors.New("bad line")
			}
			return len(line), nil
		})
	res, err := job.Run(context.Background(), []string{"a b", "bad", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Counters{Inputs: 3, Outputs: 2, Failed: 1}); res.Counters != want {
		t.Errorf("counters = %+v, want %+v", res.Counters, want)
	}
}

func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	job := NewJob(JobConfig{Name: "failing"},
		func(in int) string { return fmt.Sprint(in) },
		func(in int) (int, error) {
			if in == 7 {
				return 0, sentinel
			}
			return in, nil
		},
	)
	inputs := make([]int, 20)
	for i := range inputs {
		inputs[i] = i
	}
	_, err := job.Run(context.Background(), inputs)
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Errorf("error should carry job name: %v", err)
	}
}

// TestReduceError: a failing call's error names the input's key, so a
// pair that aborts a job is identifiable from the error alone.
func TestReduceError(t *testing.T) {
	sentinel := errors.New("call boom")
	job := NewJob(JobConfig{},
		func(in int) string { return fmt.Sprintf("k=%d", in) },
		func(in int) (int, error) {
			if in == 1 {
				return 0, sentinel
			}
			return in, nil
		},
	)
	_, err := job.Run(context.Background(), []int{0, 1, 2, 3, 4, 5})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
	if err == nil || !strings.Contains(err.Error(), `"k=1"`) {
		t.Errorf("error should name the failing input's key: %v", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([]int, 1000)
	job := NewJob(JobConfig{},
		func(in int) string { return fmt.Sprint(in) },
		func(in int) (int, error) { return in, nil },
	)
	if _, err := job.Run(ctx, inputs); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPartitionBitsControlFanout(t *testing.T) {
	// Every input is called exactly once regardless of partition count —
	// the paper's H(s,d) hash controls fan-out, not correctness.
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("key%d", i))
	}
	for _, bits := range []int{1, 3, 5, 8} {
		job := wordCountJob(JobConfig{PartitionBits: bits})
		if n := len(job.partition(lines)); n != 1<<bits {
			t.Errorf("bits=%d: %d partitions, want %d", bits, n, 1<<bits)
		}
		res, err := job.Run(context.Background(), lines)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, o := range res.Outputs {
			seen[o.Key] = true
		}
		if len(seen) != 200 {
			t.Errorf("bits=%d: %d distinct keys, want 200", bits, len(seen))
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := JobConfig{}.withDefaults()
	if cfg.Workers <= 0 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.PartitionBits != 5 {
		t.Errorf("PartitionBits = %d, want 5", cfg.PartitionBits)
	}
	big := JobConfig{PartitionBits: 30}.withDefaults()
	if big.PartitionBits != 16 {
		t.Errorf("PartitionBits clamped to %d, want 16", big.PartitionBits)
	}
}

// Property: for any input multiset, the per-line word counts sum to the
// number of words, under arbitrary worker/partition configurations.
func TestWordCountConservation(t *testing.T) {
	f := func(seed int64) bool {
		s := int(uint64(seed) % 1000003)
		words := []string{"alpha", "beta", "gamma", "delta"}
		n := s%100 + 1
		var lines []string
		total := 0
		for i := 0; i < n; i++ {
			w1 := words[(i*7+s)%4]
			w2 := words[(i*13)%4]
			lines = append(lines, w1+" "+w2)
			total += 2
		}
		cfg := JobConfig{
			Workers:       1 + s%8,
			PartitionBits: 1 + s%6,
		}
		res, err := wordCountJob(cfg).Run(context.Background(), lines)
		if err != nil {
			return false
		}
		sum := 0
		for _, o := range res.Outputs {
			sum += o.Count
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWordCount10k(b *testing.B) {
	var lines []string
	for i := 0; i < 10000; i++ {
		lines = append(lines, fmt.Sprintf("w%d w%d w%d w%d", i%100, i%37, i%11, i%3))
	}
	job := wordCountJob(JobConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.Run(context.Background(), lines); err != nil {
			b.Fatal(err)
		}
	}
}
