// Command bwbench is the repository's benchmark: five workloads that
// assemble the system the way cmd/baywatch does and measure it end to
// end, and in a separate traced run layer by layer. See README.md.
//
//	bash bench/run.sh --workload serve-firehose --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh                      # every workload, untraced and traced
//	bash bench/run.sh -runs 10 -out a.json # a result set for -compare
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"

	"baywatch/internal/pipeline"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the one place metric names, units,
// directions and bounds are written down; the harness reads them from it.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bm := &benchmarkFile{}
	if err := json.Unmarshal(data, bm); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bm, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome; its JSON form is the line the driver
// reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	notes     []string
}

// setUpRounds is how many times a run sets up, to report the median.
const setUpRounds = 3

// runChildProcess re-executes the harness as a run process and waits for
// it.
func runChildProcess(root, tag string, spec childSpec) (*childResult, error) {
	spec.Result = filepath.Join(root, tag+"-result.json")
	specPath := filepath.Join(root, tag+"-spec.json")
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command(os.Args[0], "-child", specPath)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s run process: %w", tag, err)
	}
	out, err := os.ReadFile(spec.Result)
	if err != nil {
		return nil, err
	}
	res := &childResult{}
	if err := json.Unmarshal(out, res); err != nil {
		return nil, fmt.Errorf("%s result: %w", tag, err)
	}
	return res, nil
}

// referenceRows is the batch pipeline's ranking over the records a daemon
// was fed: what its /ranked must equal in order and score.
func referenceRows(s *setupResult) ([]rankedRow, error) {
	res, err := pipeline.Run(context.Background(), s.reference, nil, pipelineConfig(s.man))
	if err != nil {
		return nil, err
	}
	return reportedRows(res), nil
}

// runOne sets the workload up, measures it in fresh processes and checks
// the outputs. Untraced it yields the end-to-end metrics; traced, an
// untraced and a traced half of the run's time each, the per-layer
// metrics and the ratio between the two halves.
func runOne(bm *benchmarkFile, w workload, seed int64, seconds, scale float64, traced bool) (*report, error) {
	root, err := filepath.Abs(filepath.Join("out", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Every round is a full set-up into its own directory. The last
	// feeds the untraced process and the one before it the traced: a
	// daemon run appends to its feed and rewrites its state, and a copy
	// would change the feed's inode under the committed position.
	var setups []*setupResult
	var setupS []float64
	for i := 0; i < setUpRounds; i++ {
		start := time.Now()
		s, err := setUp(w, seed, scale, filepath.Join(root, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if i > 0 {
			setups[i-1].reference = nil // only the last round's records are compared against
		}
		setups = append(setups, s)
	}
	last := setups[setUpRounds-1]

	spec := childSpec{Dir: last.dir, Seconds: seconds}
	if traced {
		spec.Seconds = seconds / 2
	}
	plain, err := runChildProcess(root, "untraced", spec)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: !plain.Incorrect, Attempted: plain.Attempted, Failed: plain.Failed, notes: plain.Notes, Metrics: make(map[string]metricValue)}
	check := func(ok bool, format string, args ...any) {
		rep.Attempted++
		if !ok {
			rep.Failed++
			rep.Correct = false
			rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
		}
	}
	if last.reference != nil {
		want, err := referenceRows(last)
		if err != nil {
			return nil, err
		}
		// serve-steady's final store holds appended lines too; its gate
		// is the event count the run process checked.
		if w.kind != kindSteady {
			check(slices.Equal(plain.Ranked, want), "daemon ranking (%d rows) differs from pipeline.Run over the same records (%d rows)", len(plain.Ranked), len(want))
		}
	}

	values := plain.Values
	values["setup_s"] = median(setupS)
	specs := bm.EndToEnd
	if traced {
		spec.Dir, spec.Traced = setups[setUpRounds-2].dir, true
		spec.Trace = filepath.Join("out", "trace-"+w.name+".json")
		tr, err := runChildProcess(root, "traced", spec)
		if err != nil {
			return nil, err
		}
		rep.Attempted += tr.Attempted
		rep.Failed += tr.Failed
		rep.Correct = rep.Correct && !tr.Incorrect
		rep.notes = append(rep.notes, tr.Notes...)
		check(slices.Equal(plain.Ranked, tr.Ranked), "traced run's ranking (%d rows) differs from the untraced run's (%d rows)", len(tr.Ranked), len(plain.Ranked))
		// Layer figures come from the traced half; what only a client of
		// the real daemon can see (query spans, freshness) from the
		// untraced half.
		for k, v := range tr.Values {
			if _, untraced := values[k]; !untraced {
				values[k] = v
			}
		}
		if plain.Values["result_ms"] > 0 {
			values["trace_overhead_ratio"] = tr.Values["result_ms"] / plain.Values["result_ms"]
		}
		specs = bm.PerLayer
	}
	for _, m := range specs {
		rep.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return rep, nil
}

func printReport(bm *benchmarkFile, w workload, seed int64, traced bool, rep *report) {
	mode, specs := "untraced", bm.EndToEnd
	if traced {
		mode, specs = "traced", bm.PerLayer
	}
	fmt.Printf("== %s seed %d %s: %d attempted, %d failed\n", w.name, seed, mode, rep.Attempted, rep.Failed)
	for _, m := range specs {
		fmt.Printf("%-40s %16.4f %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
}

// resultRow is one run in a result set, the input of -compare.
type resultRow struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func run() error {
	fs := flag.NewFlagSet("bwbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default: BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1: the traced run and the per-layer metrics; 0: the end-to-end metrics")
	scale := fs.Float64("scale", 1, "input size multiplier (tests use 0.02)")
	runs := fs.Int("runs", 1, "with no -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "", "with -runs: write the result set to this file")
	compare := fs.Bool("compare", false, "compare two result sets: -compare a.json b.json")
	childSpec := fs.String("child", "", "internal: run one measured process from this spec")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *childSpec != "" {
		return runChild(*childSpec)
	}
	bm, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareSets(bm, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		*seconds = float64(bm.RunSeconds)
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		rep, err := runOne(bm, w, *seed, *seconds, *scale, *trace == 1)
		if err != nil {
			return err
		}
		printReport(bm, w, *seed, *trace == 1, rep)
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if !rep.Correct {
			return fmt.Errorf("%s: a correctness check failed", w.name)
		}
		return nil
	}

	var rows []resultRow
	failed := 0
	for _, w := range workloads {
		for r := 0; r < *runs; r++ {
			rep, err := runOne(bm, w, *seed+int64(r), *seconds, *scale, false)
			if err != nil {
				return err
			}
			printReport(bm, w, *seed+int64(r), false, rep)
			row := resultRow{Workload: w.name, Seed: *seed + int64(r), Metrics: make(map[string]float64)}
			for k, v := range rep.Metrics {
				row.Metrics[k] = v.Value
			}
			rows = append(rows, row)
			if !rep.Correct {
				failed++
			}
		}
		if *out != "" {
			continue
		}
		rep, err := runOne(bm, w, *seed, *seconds, *scale, true)
		if err != nil {
			return err
		}
		printReport(bm, w, *seed, true, rep)
		if !rep.Correct {
			failed++
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rows, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed their correctness checks", failed)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bwbench:", err)
		os.Exit(1)
	}
}
