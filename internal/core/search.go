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

	// estimate is a test seam for the point evaluator; nil selects each
	// worker's engine.Sweep.
	estimate func(hw.System, plan.Instance, plan.Params, engine.Options) (engine.Result, error)
}

// Exhaustive evaluates every configuration of the space for every
// instance on sys through the analytic estimator, in parallel across host
// cores, with deterministic output order. Each worker sweeps one instance
// at a time with its own engine.Sweep, so configurations that differ only
// in cpu-tile share one walk of their GPU schedule, and asks it for each
// point's runtime and censoring alone (Sweep.RTime). The first estimation
// error cancels the remaining work promptly: every worker checks before
// each configuration and stops, and unstarted instances are never begun.
//
// On error the result is not discarded: the returned SearchResult holds
// every instance whose full configuration sweep had already completed
// (in the usual deterministic order), so a failure deep into a long
// search leaves the caller with the finished work to persist (WriteCSV)
// or inspect. Callers that only care about complete searches keep their
// `if err != nil` handling unchanged.
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
	// completed marks instances whose full configuration sweep finished;
	// each index is written by exactly one goroutine (like
	// out.Instances) and read only after wg.Wait.
	completed := make([]bool, len(insts))

	var wg sync.WaitGroup
	var firstErr error
	var mu sync.Mutex
	var stop atomic.Bool
	// sweep evaluates every configuration of instance i with the worker's
	// sw, stopping early on the first error anywhere in the search.
	sweep := func(sw *engine.Sweep, i int) {
		inst := insts[i]
		configs := space.Configs(inst, sys)
		ir := InstanceResult{
			Inst: inst, SerialNs: engine.SerialNs(sys, inst),
			Points: make([]Point, 0, len(configs)),
		}
		sw.Reset(sys, inst, eopts)
		for _, par := range configs {
			if stop.Load() {
				return
			}
			var p Point
			var err error
			if opts.estimate != nil {
				var res engine.Result
				res, err = opts.estimate(sys, inst, par, eopts)
				p.RTimeNs, p.Censored = res.RTimeNs, res.Censored
			} else {
				p.RTimeNs, p.Censored, err = sw.RTime(par)
			}
			if err != nil {
				stop.Store(true)
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: estimating %v %v: %w", inst, par, err)
				}
				mu.Unlock()
				return
			}
			p.Inst, p.Par = inst, par
			ir.Points = append(ir.Points, p)
		}
		out.Instances[i] = ir
		completed[i] = true
	}
	var next atomic.Int64
	for range min(workers, len(insts)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sw engine.Sweep
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(insts) {
					return
				}
				sweep(&sw, i)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		// Keep the finished instances (deterministic order preserved) so
		// the completed work survives the failure.
		kept := out.Instances[:0]
		for i := range insts {
			if completed[i] {
				kept = append(kept, out.Instances[i])
			}
		}
		out.Instances = kept
		return out, firstErr
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
