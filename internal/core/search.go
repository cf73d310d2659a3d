package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/plan"
)

// Point is one evaluated configuration.
type Point struct {
	Inst     plan.Instance
	Par      plan.Params
	RTimeNs  float64
	Censored bool
}

// InstanceResult groups the evaluations of one instance.
type InstanceResult struct {
	Inst     plan.Instance
	SerialNs float64
	Points   []Point
}

// Best returns the fastest uncensored point. ok is false when every
// configuration was censored (which the 90 s threshold makes possible for
// the largest instances).
func (ir *InstanceResult) Best() (Point, bool) {
	var best Point
	found := false
	for _, p := range ir.Points {
		if p.Censored {
			continue
		}
		if !found || p.RTimeNs < best.RTimeNs {
			best = p
			found = true
		}
	}
	return best, found
}

// TopK returns the k fastest uncensored points, best first.
func (ir *InstanceResult) TopK(k int) []Point {
	var ok []Point
	for _, p := range ir.Points {
		if !p.Censored {
			ok = append(ok, p)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].RTimeNs < ok[j].RTimeNs })
	if len(ok) > k {
		ok = ok[:k]
	}
	return ok
}

// Uncensored returns the uncensored runtimes (the population behind the
// paper's violin plots and average-case comparisons).
func (ir *InstanceResult) Uncensored() []float64 {
	var xs []float64
	for _, p := range ir.Points {
		if !p.Censored {
			xs = append(xs, p.RTimeNs)
		}
	}
	return xs
}

// SearchResult is a full exhaustive exploration of a space on one system.
type SearchResult struct {
	Sys       hw.System
	Space     Space
	Instances []InstanceResult
}

// SearchOptions configure the exhaustive search, which censors every
// run at the paper's 90 s threshold (engine.DefaultThresholdNs).
type SearchOptions struct {
	// Workers bounds host parallelism (default GOMAXPROCS).
	Workers int
}

// Exhaustive evaluates every configuration of the space for every
// instance on sys through the analytic estimator, in parallel across host
// cores, with deterministic output order. Each worker sweeps one instance
// at a time with its own engine.Sweep, so configurations that differ only
// in cpu-tile share one walk of their GPU schedule, and asks it for each
// point's runtime and censoring alone (Sweep.RTime). Space.Configs lists
// only configurations sys can run, which are the ones RTime accepts, so
// a search does not fail midway; if RTime ever does fail, Exhaustive
// returns its error and no result.
func Exhaustive(sys hw.System, space Space, opts SearchOptions) (*SearchResult, error) {
	return search(sys, space, space.Instances(), opts)
}

// search is Exhaustive over an explicit list of instances; Evaluate
// passes its own.
func search(sys hw.System, space Space, insts []plan.Instance, opts SearchOptions) (*SearchResult, error) {
	eopts := engine.Options{ThresholdNs: engine.DefaultThresholdNs}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := &SearchResult{Sys: sys, Space: space, Instances: make([]InstanceResult, len(insts))}
	// sweep evaluates every configuration of instance i with the worker's sw.
	sweep := func(sw *engine.Sweep, i int) error {
		inst := insts[i]
		configs := space.Configs(inst, sys)
		ir := InstanceResult{
			Inst: inst, SerialNs: engine.SerialNs(sys, inst),
			Points: make([]Point, len(configs)),
		}
		sw.Reset(sys, inst, eopts)
		for j, par := range configs {
			ns, censored, err := sw.RTime(par)
			if err != nil {
				return fmt.Errorf("core: estimating %v %v: %w", inst, par, err)
			}
			ir.Points[j] = Point{Inst: inst, Par: par, RTimeNs: ns, Censored: censored}
		}
		out.Instances[i] = ir
		return nil
	}
	errs := make([]error, min(workers, len(insts)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sw engine.Sweep
			for i := int(next.Add(1)) - 1; i < len(insts); i = int(next.Add(1)) - 1 {
				if errs[w] = sweep(&sw, i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// For returns the result for an exact instance, or false. The square and
// rectangular spellings of the same shape (Dim=n vs Rows=Cols=n) match.
func (sr *SearchResult) For(inst plan.Instance) (*InstanceResult, bool) {
	want := inst.Normalize()
	for i := range sr.Instances {
		if sr.Instances[i].Inst.Normalize() == want {
			return &sr.Instances[i], true
		}
	}
	return nil, false
}

// Evaluations returns the total number of evaluated points.
func (sr *SearchResult) Evaluations() int {
	n := 0
	for i := range sr.Instances {
		n += len(sr.Instances[i].Points)
	}
	return n
}
