package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Registry() {
		if seen[r.Name] {
			t.Errorf("duplicate experiment name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Run == nil {
			t.Errorf("experiment %q has nil runner", r.Name)
		}
	}
	if len(Names()) != len(Registry()) {
		t.Error("Names/Registry mismatch")
	}
}

func TestRunUnknownName(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:     "Test",
		Title:  "Rendering",
		Header: []string{"col1", "longer column"},
		Rows:   [][]string{{"a", "b"}, {"ccccc", "d"}},
		Notes:  []string{"a note"},
	}
	s := tb.String()
	for _, want := range []string{"Test", "Rendering", "col1", "ccccc", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestShorten(t *testing.T) {
	if got := shorten("short.com", 20); got != "short.com" {
		t.Errorf("shorten = %q", got)
	}
	long := "cdn.5f75b1c54f8aaaaaaaaaaaaaaaa2d4.com"
	got := shorten(long, 20)
	if len(got) > 22 || !strings.Contains(got, "[..]") {
		t.Errorf("shorten = %q", got)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/<experiment>.golden from this run")

// goldenRows renders every table's header and rows, one tab-separated line
// each, for the golden files. Columns whose header names a runtime hold
// wall time, which no two runs share, so their cells are masked.
func goldenRows(tables []*Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		fmt.Fprintf(&sb, "# %s — %s\n", tb.ID, tb.Title)
		var wall []bool
		for _, h := range tb.Header {
			wall = append(wall, strings.Contains(h, "runtime"))
		}
		sb.WriteString(strings.Join(tb.Header, "\t") + "\n")
		for _, row := range tb.Rows {
			cells := append([]string(nil), row...)
			for i := range cells {
				if i < len(wall) && wall[i] {
					cells[i] = "<wall time>"
				}
			}
			sb.WriteString(strings.Join(cells, "\t") + "\n")
		}
	}
	return sb.String()
}

// checkGolden holds an experiment's quick-mode tables to
// testdata/<name>.golden; go test -run <Test> -update rewrites the file.
func checkGolden(t *testing.T, name string, tables []*Table) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	got := goldenRows(tables)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

// fastExperiments run in well under a second each in Quick mode.
var fastExperiments = []string{"fig2", "fig5", "fig6", "fig7"}

func TestFastExperiments(t *testing.T) {
	for _, name := range fastExperiments {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, err := Run(name, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %s has no rows", tb.ID)
				}
				if tb.ID == "" || tb.Title == "" {
					t.Errorf("table metadata incomplete: %+v", tb)
				}
			}
			checkGolden(t, name, tables)
		})
	}
}

func TestSlowExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow experiments skipped in -short mode")
	}
	for _, name := range []string{"table3", "table4", "table5", "table6", "fig11", "scalability", "headline"} {
		name := name
		t.Run(name, func(t *testing.T) {
			tables, err := Run(name, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 || len(tables[0].Rows) == 0 {
				t.Fatal("experiment produced no data")
			}
			checkGolden(t, name, tables)
		})
	}
}

func TestFig6PrunesToTruePeriod(t *testing.T) {
	tables, err := Run("fig6", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, row := range tables[0].Rows {
		if row[len(row)-1] == "kept" {
			kept++
			period := row[2]
			if !strings.HasPrefix(period, "387") && !strings.HasPrefix(period, "386") && !strings.HasPrefix(period, "388") {
				t.Errorf("kept period %s, want ~387", period)
			}
		}
	}
	if kept == 0 {
		t.Error("no candidate survived pruning")
	}
}

func TestFig2DetectsBothTraces(t *testing.T) {
	tables, err := Run("fig2", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[len(row)-1] != "beaconing" {
			t.Errorf("trace %s not detected", row[0])
		}
	}
}
