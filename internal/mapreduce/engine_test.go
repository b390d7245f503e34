package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

type kv struct {
	Key   string
	Count int
}

func wordCountJob(cfg JobConfig) *Job[string, string, int, kv] {
	return NewJob[string, string, int, kv](cfg,
		func(line string, emit Emitter[string, int]) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		func(key string, values []int, emit func(kv)) error {
			total := 0
			for _, v := range values {
				total += v
			}
			emit(kv{Key: key, Count: total})
			return nil
		},
	)
}

func runWordCount(t *testing.T, cfg JobConfig, lines []string) map[string]int {
	t.Helper()
	res, err := wordCountJob(cfg).Run(context.Background(), lines)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int, len(res.Outputs))
	for _, o := range res.Outputs {
		if _, dup := out[o.Key]; dup {
			t.Fatalf("key %q reduced twice", o.Key)
		}
		out[o.Key] = o.Count
	}
	return out
}

func TestWordCount(t *testing.T) {
	lines := []string{
		"the quick brown fox",
		"the lazy dog",
		"the quick dog",
	}
	got := runWordCount(t, JobConfig{}, lines)
	want := map[string]int{
		"the": 3, "quick": 2, "brown": 1, "fox": 1, "lazy": 1, "dog": 2,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := wordCountJob(JobConfig{}).Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 {
		t.Errorf("outputs = %v, want empty", res.Outputs)
	}
	if res.Counters.InputRecords != 0 || res.Counters.DistinctKeys != 0 {
		t.Errorf("counters = %+v", res.Counters)
	}
}

func TestSingleWorkerMatchesParallel(t *testing.T) {
	var lines []string
	for i := 0; i < 500; i++ {
		lines = append(lines, fmt.Sprintf("w%d w%d w%d", i%7, i%13, i%29))
	}
	serial := runWordCount(t, JobConfig{Mappers: 1, Reducers: 1}, lines)
	parallel := runWordCount(t, JobConfig{Mappers: 8, Reducers: 8}, lines)
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("parallel result differs from serial")
	}
}

// TestDeterministicOutputOrder pins Run's documented order: by partition,
// then by first emission, taking map worker 0's keys first, then worker
// 1's new ones, and so on, where worker w maps inputs w, w+Mappers, ...
func TestDeterministicOutputOrder(t *testing.T) {
	var lines []string
	for i := 0; i < 300; i++ {
		lines = append(lines, fmt.Sprintf("k%d k%d", (i*7)%50, (i*13)%61))
	}
	const mappers, bits = 4, 3
	var want []string
	seen := map[string]bool{}
	for p := uint64(0); p < 1<<bits; p++ {
		for w := 0; w < mappers; w++ {
			for i := w; i < len(lines); i += mappers {
				for _, word := range strings.Fields(lines[i]) {
					if keyHash(word)%(1<<bits) == p && !seen[word] {
						seen[word] = true
						want = append(want, word)
					}
				}
			}
		}
	}

	job := wordCountJob(JobConfig{Mappers: mappers, Reducers: 4, PartitionBits: bits})
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
	lines := []string{"a b", "a"}
	res, err := wordCountJob(JobConfig{}).Run(context.Background(), lines)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.InputRecords != 2 {
		t.Errorf("InputRecords = %d, want 2", c.InputRecords)
	}
	if c.MapOutputPairs != 3 {
		t.Errorf("MapOutputPairs = %d, want 3", c.MapOutputPairs)
	}
	if c.DistinctKeys != 2 {
		t.Errorf("DistinctKeys = %d, want 2", c.DistinctKeys)
	}
	if c.OutputRecords != 2 {
		t.Errorf("OutputRecords = %d, want 2", c.OutputRecords)
	}
}

func TestMapError(t *testing.T) {
	sentinel := errors.New("boom")
	job := NewJob[int, int, int, int](JobConfig{Name: "failing"},
		func(in int, emit Emitter[int, int]) error {
			if in == 7 {
				return sentinel
			}
			emit(in, in)
			return nil
		},
		func(k int, vs []int, emit func(int)) error { emit(k); return nil },
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

func TestReduceError(t *testing.T) {
	sentinel := errors.New("reduce boom")
	job := NewJob[int, int, int, int](JobConfig{},
		func(in int, emit Emitter[int, int]) error { emit(in%3, in); return nil },
		func(k int, vs []int, emit func(int)) error {
			if k == 1 {
				return sentinel
			}
			emit(k)
			return nil
		},
	)
	inputs := []int{0, 1, 2, 3, 4, 5}
	_, err := job.Run(context.Background(), inputs)
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([]int, 1000)
	job := NewJob[int, int, int, int](JobConfig{},
		func(in int, emit Emitter[int, int]) error { emit(in, 1); return nil },
		func(k int, vs []int, emit func(int)) error { emit(k); return nil },
	)
	if _, err := job.Run(ctx, inputs); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestPartitionBitsControlFanout(t *testing.T) {
	// All keys must appear exactly once regardless of partition count —
	// the paper's H(s,d) hash controls fan-out, not correctness.
	var lines []string
	for i := 0; i < 200; i++ {
		lines = append(lines, fmt.Sprintf("key%d", i))
	}
	for _, bits := range []int{1, 3, 5, 8} {
		got := runWordCount(t, JobConfig{PartitionBits: bits}, lines)
		if len(got) != 200 {
			t.Errorf("bits=%d: %d distinct keys, want 200", bits, len(got))
		}
	}
}

func TestReduceSeesAllValuesOfKey(t *testing.T) {
	job := NewJob[int, string, int, []int](JobConfig{Mappers: 7},
		func(in int, emit Emitter[string, int]) error {
			emit("all", in)
			return nil
		},
		func(_ string, vs []int, emit func([]int)) error {
			sorted := append([]int(nil), vs...)
			sort.Ints(sorted)
			emit(sorted)
			return nil
		},
	)
	inputs := []int{5, 3, 9, 1, 7}
	res, err := job.Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || !reflect.DeepEqual(res.Outputs[0], []int{1, 3, 5, 7, 9}) {
		t.Errorf("outputs = %v", res.Outputs)
	}
}

func TestJobChaining(t *testing.T) {
	// Job 1: word count. Job 2: histogram of counts. Chained without
	// reprocessing raw input — the paper's modular job design.
	lines := []string{"a b c", "a b", "a"}
	res1, err := wordCountJob(JobConfig{}).Run(context.Background(), lines)
	if err != nil {
		t.Fatal(err)
	}
	job2 := NewJob[kv, int, int, kv](JobConfig{},
		func(in kv, emit Emitter[int, int]) error {
			emit(in.Count, 1)
			return nil
		},
		func(count int, vs []int, emit func(kv)) error {
			emit(kv{Key: fmt.Sprintf("count=%d", count), Count: len(vs)})
			return nil
		},
	)
	res2, err := job2.Run(context.Background(), res1.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, o := range res2.Outputs {
		got[o.Key] = o.Count
	}
	// counts: a=3, b=2, c=1 -> one word each with count 1, 2, 3.
	want := map[string]int{"count=1": 1, "count=2": 1, "count=3": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := JobConfig{}.withDefaults()
	if cfg.Mappers <= 0 || cfg.Reducers <= 0 {
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

// Property: for any input multiset, the sum of all word counts equals the
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
			Mappers:       1 + s%8,
			Reducers:      1 + s%4,
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
