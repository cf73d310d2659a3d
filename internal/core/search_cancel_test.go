package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

func TestExhaustiveStopsPromptlyOnEstimateError(t *testing.T) {
	// Regression: an Estimate error used to record firstErr but let every
	// other in-flight goroutine evaluate its entire configuration space.
	// With cancellation, the first failure must stop the search after at
	// most one in-flight call per worker.
	sys := hw.I7_2600K()
	space := tinySpace()
	boom := errors.New("boom")
	var calls atomic.Int64
	const workers = 4
	opts := SearchOptions{
		Workers: workers,
		estimate: func(hw.System, plan.Instance, plan.Params, engine.Options) (engine.Result, error) {
			calls.Add(1)
			return engine.Result{}, boom
		},
	}
	_, err := Exhaustive(sys, space, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "core: estimating") {
		t.Errorf("error not annotated: %v", err)
	}
	// Every goroutine checks the stop flag before each call, so once the
	// first call fails, at most one straggler call per worker can slip in.
	if got := calls.Load(); got > workers {
		t.Errorf("estimate called %d times after instant failure, want <= %d", got, workers)
	}
	if total := space.Size(sys); int(calls.Load()) >= total {
		t.Errorf("search did not short-circuit: %d calls of %d total", calls.Load(), total)
	}
}

func TestExhaustiveStopsMidSearch(t *testing.T) {
	// Failing partway through must still cancel the remaining bulk of the
	// space rather than draining it.
	sys := hw.I7_2600K()
	space := tinySpace()
	total := space.Size(sys)
	boom := errors.New("deferred boom")
	const failAt = 40
	var calls atomic.Int64
	opts := SearchOptions{
		Workers: 2,
		estimate: func(s hw.System, inst plan.Instance, par plan.Params, o engine.Options) (engine.Result, error) {
			if calls.Add(1) >= failAt {
				return engine.Result{}, boom
			}
			return engine.Estimate(s, inst, par, o)
		},
	}
	_, err := Exhaustive(sys, space, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := int(calls.Load()); got >= total/2 {
		t.Errorf("search drained %d of %d evaluations after an early error", got, total)
	}
}

// TestExhaustivePartialResultsOnError: a failure deep into a sweep must
// not discard the instances that already completed — they come back
// alongside the error, in order, ready to persist.
func TestExhaustivePartialResultsOnError(t *testing.T) {
	sys := hw.I7_2600K()
	space := tinySpace()
	insts := space.Instances()
	const failIdx = 2 // fail on the third instance's first configuration
	boom := errors.New("boom")
	opts := SearchOptions{
		// One worker serializes the instances in order, so exactly the
		// instances before failIdx complete.
		Workers: 1,
		estimate: func(s hw.System, inst plan.Instance, par plan.Params, o engine.Options) (engine.Result, error) {
			if inst == insts[failIdx] {
				return engine.Result{}, boom
			}
			return engine.Estimate(s, inst, par, o)
		},
	}
	sr, err := Exhaustive(sys, space, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if sr == nil {
		t.Fatal("partial result discarded on error")
	}
	if len(sr.Instances) != failIdx {
		t.Fatalf("partial instances = %d, want the %d completed before the failure",
			len(sr.Instances), failIdx)
	}
	for i, ir := range sr.Instances {
		if ir.Inst != insts[i] {
			t.Errorf("instance %d = %v, want %v (order must survive compaction)", i, ir.Inst, insts[i])
		}
		if want := len(space.Configs(ir.Inst, sys)); len(ir.Points) != want {
			t.Errorf("instance %d has %d points, want the full sweep of %d", i, len(ir.Points), want)
		}
	}
	// The partial result must be persistable: the CSV round trip is what
	// wavesweep leans on to save completed work.
	var buf strings.Builder
	if err := sr.WriteCSV(&buf); err != nil {
		t.Fatalf("partial WriteCSV: %v", err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("partial CSV unreadable: %v", err)
	}
	if back.Evaluations() != sr.Evaluations() {
		t.Errorf("round trip kept %d evaluations, want %d", back.Evaluations(), sr.Evaluations())
	}
}

func TestExhaustiveSucceedsWithoutHook(t *testing.T) {
	// The default path (engine.Estimate) is untouched by the seam.
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
