package timeseries

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFromTimestampsErrors(t *testing.T) {
	if _, err := FromTimestamps("s", "d", nil, 1); err == nil {
		t.Error("expected error for empty timestamps")
	}
	if _, err := FromTimestamps("s", "d", []int64{1}, 0); err == nil {
		t.Error("expected error for zero scale")
	}
	if _, err := FromTimestamps("s", "d", []int64{1}, -5); err == nil {
		t.Error("expected error for negative scale")
	}
}

func TestFromTimestampsBasic(t *testing.T) {
	ts := []int64{100, 160, 220, 340}
	a, err := FromTimestamps("mac1", "evil.com", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.First != 100 {
		t.Errorf("First = %d, want 100", a.First)
	}
	if want := []int64{60, 60, 120}; !reflect.DeepEqual(a.Intervals, want) {
		t.Errorf("Intervals = %v, want %v", a.Intervals, want)
	}
	if a.EventCount() != 4 {
		t.Errorf("EventCount = %d, want 4", a.EventCount())
	}
	if a.Span() != 240 {
		t.Errorf("Span = %d, want 240", a.Span())
	}
	if a.PairKey() != "mac1|evil.com" {
		t.Errorf("PairKey = %q", a.PairKey())
	}
}

func TestFromTimestampsUnsortedInput(t *testing.T) {
	a, err := FromTimestamps("s", "d", []int64{340, 100, 220, 160}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{60, 60, 120}; !reflect.DeepEqual(a.Intervals, want) {
		t.Errorf("Intervals = %v, want %v", a.Intervals, want)
	}
	// Input slice is not mutated.
	b := []int64{5, 3, 4}
	if _, err := FromTimestamps("s", "d", b, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, []int64{5, 3, 4}) {
		t.Errorf("input mutated: %v", b)
	}
}

// TestFromTimestampsMatchesSortReference: already-sorted, shuffled and
// duplicate-heavy inputs build the summary a sort-then-difference
// reference builds, at several scales, and the input is never reordered.
func TestFromTimestampsMatchesSortReference(t *testing.T) {
	reference := func(ts []int64, scale int64) *ActivitySummary {
		sorted := append([]int64(nil), ts...)
		for i := 1; i < len(sorted); i++ { // insertion sort: no shared code with the function under test
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		var intervals []int64
		for i := 1; i < len(sorted); i++ {
			intervals = append(intervals, sorted[i]/scale-sorted[i-1]/scale)
		}
		return &ActivitySummary{Source: "s", Destination: "d", Scale: scale, First: sorted[0] / scale * scale, Intervals: intervals}
	}
	rng := rand.New(rand.NewSource(7))
	inputs := map[string][]int64{"single": {42}}
	sorted := make([]int64, 300)
	for i := range sorted {
		sorted[i] = 1_000_000 + int64(i)*60 + rng.Int63n(5)
	}
	inputs["sorted"] = sorted
	shuffled := append([]int64(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	inputs["shuffled"] = shuffled
	dups := make([]int64, 400)
	for i := range dups {
		dups[i] = 5000 + rng.Int63n(4)*30
	}
	inputs["duplicate-heavy"] = dups
	inputs["sorted-duplicates"] = []int64{7, 7, 7, 8, 8, 120, 120}
	inputs["one-late"] = append(append([]int64(nil), sorted[:200]...), sorted[10])
	for name, ts := range inputs {
		before := append([]int64(nil), ts...)
		for _, scale := range []int64{1, 7, 60} {
			got, err := FromTimestamps("s", "d", ts, scale)
			if err != nil {
				t.Fatalf("%s scale %d: %v", name, scale, err)
			}
			if want := reference(ts, scale); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scale %d:\n got %+v\nwant %+v", name, scale, got, want)
			}
		}
		if !reflect.DeepEqual(ts, before) {
			t.Fatalf("%s: input reordered", name)
		}
	}
}

func TestFromTimestampsQuantization(t *testing.T) {
	// Scale 60: 100->1, 130->2... timestamps quantized to minute buckets.
	ts := []int64{100, 130, 190, 400}
	a, err := FromTimestamps("s", "d", ts, 60)
	if err != nil {
		t.Fatal(err)
	}
	if a.First != 60 { // bucket of 100 at scale 60 is 60
		t.Errorf("First = %d, want 60", a.First)
	}
	// Buckets: 1, 2, 3, 6 -> intervals 1, 1, 3.
	if want := []int64{1, 1, 3}; !reflect.DeepEqual(a.Intervals, want) {
		t.Errorf("Intervals = %v, want %v", a.Intervals, want)
	}
}

func TestTimestampsRoundTrip(t *testing.T) {
	ts := []int64{100, 160, 160, 220}
	a, err := FromTimestamps("s", "d", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := a.Timestamps()
	if !reflect.DeepEqual(got, ts) {
		t.Errorf("Timestamps = %v, want %v", got, ts)
	}
}

func TestIntervalsSeconds(t *testing.T) {
	a := &ActivitySummary{Scale: 60, Intervals: []int64{1, 2, 0}}
	want := []float64{60, 120, 0}
	if got := a.IntervalsSeconds(); !reflect.DeepEqual(got, want) {
		t.Errorf("IntervalsSeconds = %v, want %v", got, want)
	}
}

func TestRescale(t *testing.T) {
	ts := []int64{0, 59, 60, 179, 600}
	a, err := FromTimestamps("s", "d", ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.Rescale(60)
	if err != nil {
		t.Fatal(err)
	}
	// Minute buckets: 0, 0, 1, 2, 10 -> intervals 0, 1, 1, 8.
	if want := []int64{0, 1, 1, 8}; !reflect.DeepEqual(r.Intervals, want) {
		t.Errorf("rescaled Intervals = %v, want %v", r.Intervals, want)
	}
	if r.Scale != 60 {
		t.Errorf("Scale = %d, want 60", r.Scale)
	}

	if _, err := a.Rescale(0); err == nil {
		t.Error("expected error for zero scale")
	}
	if _, err := r.Rescale(90); err == nil {
		t.Error("expected error for non-multiple scale")
	}
}

func TestRescaleSameScaleIsCopy(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 10, 20}, 1)
	a.AddURLPath("/x")
	cp, err := a.Rescale(1)
	if err != nil {
		t.Fatal(err)
	}
	cp.Intervals[0] = 999
	cp.URLPaths[0] = "/mutated"
	if a.Intervals[0] == 999 || a.URLPaths[0] == "/mutated" {
		t.Error("Rescale(sameScale) returned aliased slices")
	}
}

func TestMerge(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 60, 120}, 1)
	b, _ := FromTimestamps("s", "d", []int64{180, 240}, 1)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.EventCount() != 5 {
		t.Errorf("merged EventCount = %d, want 5", m.EventCount())
	}
	if want := []int64{60, 60, 60, 60}; !reflect.DeepEqual(m.Intervals, want) {
		t.Errorf("merged Intervals = %v, want %v", m.Intervals, want)
	}
}

func TestMergeInterleaved(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 120}, 1)
	b, _ := FromTimestamps("s", "d", []int64{60, 180}, 1)
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{60, 60, 60}; !reflect.DeepEqual(m.Intervals, want) {
		t.Errorf("merged Intervals = %v, want %v", m.Intervals, want)
	}
}

func TestMergeNilHandling(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 60}, 1)
	m, err := Merge(a, nil)
	if err != nil || m != a {
		t.Errorf("Merge(a, nil) = %v, %v", m, err)
	}
	m, err = Merge(nil, a)
	if err != nil || m != a {
		t.Errorf("Merge(nil, a) = %v, %v", m, err)
	}
}

func TestMergeErrors(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 60}, 1)
	b, _ := FromTimestamps("s", "d", []int64{0, 60}, 60)
	if _, err := Merge(a, b); err == nil {
		t.Error("expected scale mismatch error")
	}
	c, _ := FromTimestamps("s2", "d", []int64{0, 60}, 1)
	if _, err := Merge(a, c); err == nil {
		t.Error("expected pair mismatch error")
	}
}

func TestMergeURLPathsDeduplicated(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 60}, 1)
	a.AddURLPath("/a")
	a.AddURLPath("/b")
	b, _ := FromTimestamps("s", "d", []int64{120}, 1)
	b.AddURLPath("/b")
	b.AddURLPath("/c")
	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"/a", "/b", "/c"}; !reflect.DeepEqual(m.URLPaths, want) {
		t.Errorf("merged URLPaths = %v, want %v", m.URLPaths, want)
	}
}

func TestAddURLPathBoundsAndDedup(t *testing.T) {
	var a ActivitySummary
	a.AddURLPath("")
	if len(a.URLPaths) != 0 {
		t.Error("empty path must be ignored")
	}
	for i := 0; i < 100; i++ {
		a.AddURLPath("/p" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
	}
	if len(a.URLPaths) > MaxURLPaths {
		t.Errorf("URLPaths grew to %d, cap is %d", len(a.URLPaths), MaxURLPaths)
	}
	n := len(a.URLPaths)
	a.AddURLPath(a.URLPaths[0])
	if len(a.URLPaths) != n {
		t.Error("duplicate path was appended")
	}
}

func TestBinSeries(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 3, 3, 7}, 1)
	s := a.BinSeries(0)
	want := []float64{1, 0, 0, 2, 0, 0, 0, 1}
	if !reflect.DeepEqual(s, want) {
		t.Errorf("BinSeries = %v, want %v", s, want)
	}
}

func TestBinSeriesCapped(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{0, 5, 1000000}, 1)
	s := a.BinSeries(100)
	if len(s) != 100 {
		t.Errorf("capped length = %d, want 100", len(s))
	}
	if s[0] != 1 || s[5] != 1 {
		t.Errorf("events within cap missing: %v", s[:10])
	}
}

func TestBinSeriesSingleEvent(t *testing.T) {
	a, _ := FromTimestamps("s", "d", []int64{42}, 1)
	s := a.BinSeries(0)
	if len(s) != 1 || s[0] != 1 {
		t.Errorf("BinSeries = %v, want [1]", s)
	}
}

// Property: merge is commutative and the merged summary's event count is
// the sum of the parts.
func TestMergeCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *ActivitySummary {
			n := 1 + rng.Intn(50)
			ts := make([]int64, n)
			for i := range ts {
				ts[i] = int64(rng.Intn(100000))
			}
			a, err := FromTimestamps("s", "d", ts, 1)
			if err != nil {
				return nil
			}
			return a
		}
		a, b := mk(), mk()
		if a == nil || b == nil {
			return false
		}
		m1, err1 := Merge(a, b)
		m2, err2 := Merge(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return reflect.DeepEqual(m1.Intervals, m2.Intervals) &&
			m1.First == m2.First &&
			m1.EventCount() == a.EventCount()+b.EventCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: rescaling preserves event count and never increases span.
func TestRescalePreservesEvents(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		ts := make([]int64, n)
		for i := range ts {
			ts[i] = int64(rng.Intn(1000000))
		}
		a, err := FromTimestamps("s", "d", ts, 1)
		if err != nil {
			return false
		}
		r, err := a.Rescale(60)
		if err != nil {
			return false
		}
		return r.EventCount() == a.EventCount() && r.Span() <= a.Span()+60
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
