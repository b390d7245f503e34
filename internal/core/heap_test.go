package core

import (
	"runtime"
	"testing"

	"baywatch/internal/timeseries"
)

// TestDetectHeapPlateau is the heap probe for the detector's long-lived
// state: detecting over 300 distinct series lengths must not grow the live
// heap once the largest length has warmed the plans and pooled buffers.
// Every length-keyed cache the detector could keep would fail it — the
// chirp-z kernel cache once held ≈0.45 MB per distinct length, which is
// over 100 MB here. Lengths run from 2,000 to 19,940 bins; those above
// 8,192 decimate, and their 5 s beacon (under four decimated bins) verifies
// on the undecimated basis.
func TestDetectHeapPlateau(t *testing.T) {
	const bound = 1 << 20 // bytes of live heap the 300 lengths may add
	det := NewDetector(DefaultConfig())
	detectLen := func(n int) {
		var ts []int64
		for at := int64(0); at < int64(n-1); at += 5 {
			ts = append(ts, at)
		}
		ts = append(ts, int64(n-1))
		as, err := timeseries.FromTimestamps("src", "dst", ts, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := det.Detect(as)
		if err != nil {
			t.Fatal(err)
		}
		if res.SeriesLen != n || !res.Periodic {
			t.Fatalf("n=%d: SeriesLen %d periodic %v", n, res.SeriesLen, res.Periodic)
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle also frees sync.Pool victims
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	lengths := make([]int, 300)
	for i := range lengths {
		lengths[i] = 2000 + 60*i
	}
	detectLen(lengths[len(lengths)-1])
	before := liveHeap()
	for _, n := range lengths {
		detectLen(n)
	}
	after := liveHeap()
	t.Logf("live heap %d -> %d bytes over %d lengths", before, after, len(lengths))
	if after > before+bound {
		t.Errorf("live heap grew %d bytes over %d distinct lengths, bound %d", after-before, len(lengths), bound)
	}
}
