package core

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/hw"
)

// TestExhaustiveEvaluatesEveryConfig: the search evaluates every
// configuration Space.Configs lists, once.
func TestExhaustiveEvaluatesEveryConfig(t *testing.T) {
	sys := hw.I3_540()
	sr, err := Exhaustive(sys, tinySpace(), SearchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Evaluations() != tinySpace().Size(sys) {
		t.Errorf("evaluations = %d, want %d", sr.Evaluations(), tinySpace().Size(sys))
	}
}

// TestQuickSearchTotalAlloc bounds what one lazily trained tuner's search
// allocates. Workers reuse their sweep's tape storage across instances,
// so sharing GPU schedules must not trade the time it saves for garbage:
// the search stays within twice the 2.64 MB that evaluating each point
// on its own allocated (i7-2600K, two workers).
func TestQuickSearchTotalAlloc(t *testing.T) {
	const limit = 2 * 2_638_136
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr, err := Exhaustive(hw.I7_2600K(), QuickSpace(), SearchOptions{Workers: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("quick-space search allocated %d bytes for %d points, want <= %d",
			got, sr.Evaluations(), limit)
	}
}

// TestExhaustiveWorkerCountIndependent: which instances a worker sweeps,
// and so which of them share its shape tapes, depends on the worker
// count; the search's output must not.
func TestExhaustiveWorkerCountIndependent(t *testing.T) {
	sys := hw.I7_2600K()
	want, err := Exhaustive(sys, QuickSpace(), SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7} {
		got, err := Exhaustive(sys, QuickSpace(), SearchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Instances, want.Instances) {
			t.Errorf("%d workers: search differs from one worker's", workers)
		}
	}
}
