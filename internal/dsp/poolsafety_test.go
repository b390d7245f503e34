package dsp

import "testing"

// The package-level entry points borrow a shared pooled Scratch and must
// return it on every path — including validation failures. A release
// skipped on the error path would not fail any functional test (the pool
// just refills via New), but it would show up here: each leaked Scratch
// forces the next call to allocate a fresh one, and NewScratch costs far
// more than the handful of allocations an error return is allowed.
const errPathAllocBudget = 8

func TestComputePeriodogramErrorPathReleasesScratch(t *testing.T) {
	short := []float64{1, 2}
	if _, err := ComputePeriodogram(short, 1); err == nil {
		t.Fatal("short series should fail")
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = ComputePeriodogram(short, 1)
	})
	if allocs > errPathAllocBudget {
		t.Errorf("error path costs %v allocs/op (budget %d): scratch is leaking back to the allocator", allocs, errPathAllocBudget)
	}
}
