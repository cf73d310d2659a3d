package engine

import (
	"repro/internal/hw"
	"repro/internal/plan"
)

// A Sweep estimates many configurations of one instance, sharing the work
// they have in common. A plan's GPU phase depends on its band, halo,
// gpu-tile and device count but never on its cpu-tile, and a CPU phase
// depends only on its cpu-tile and diagonal range. So a Sweep walks each
// distinct GPU schedule once and records a tape of it, computes each
// distinct CPU phase once, and replays those records into every
// configuration that shares them.
//
// A replay starts from the configuration's own Phase 1 time and adds the
// GPU phase in exactly the order Estimate does (start-up, input
// transfers, then each period's lockstep time and halo exchange with the
// censoring check at its end, then the output transfers), through the same
// clock. Sweep.Estimate therefore returns what Estimate returns, bit for
// bit. The one exception would be a run censored part-way through its GPU
// phase, whose breakdown holds partial launch counters that a full-walk
// tape cannot give; such a point is recomputed with Estimate.
//
// The zero value is ready for Reset. A Sweep is not safe for concurrent
// use; give each worker its own, and reuse it across instances so its
// tape storage is reused too.
type Sweep struct {
	sys   hw.System
	inst  plan.Instance
	opts  Options
	costs []hw.LaunchCost

	cpu   map[cpuKey]float64
	index map[gpuKey]int
	tapes []gpuTape
	// periods backs every tape's period durations, so one growing buffer
	// serves all the instances a worker sweeps.
	periods []float64
}

// cpuKey identifies a CPU phase of the bound instance.
type cpuKey struct{ ct, lo, hi int }

// gpuKey holds everything a GPU schedule walk reads beyond the bound
// instance and system.
type gpuKey struct{ gLo, gHi, period, gpuTile, nGPU int }

// gpuTape records one walk of a GPU schedule: each period's lockstep
// duration, at Sweep.periods[off:end], and the full walk's launch
// counters. A halo exchange follows every period but the last on a
// multi-GPU schedule, so the first swaps periods are the ones followed by
// one.
type gpuTape struct {
	off, end int
	swaps    int
	launchTotals
}

// Reset binds the sweep to one instance, system and option set, keeping
// the storage of earlier instances for reuse.
func (s *Sweep) Reset(sys hw.System, inst plan.Instance, opts Options) {
	s.sys, s.inst, s.opts = sys, inst, opts
	s.costs = launchCosts(s.costs[:0], sys, inst, len(sys.GPUs))
	if s.cpu == nil {
		s.cpu = make(map[cpuKey]float64)
		s.index = make(map[gpuKey]int)
	}
	clear(s.cpu)
	clear(s.index)
	s.tapes = s.tapes[:0]
	s.periods = s.periods[:0]
}

// Estimate is Estimate(sys, inst, par, opts) for the bound sys, inst and
// opts.
func (s *Sweep) Estimate(par plan.Params) (Result, error) {
	pl, err := prepare(s.sys, s.inst, par, s.opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = s.inst.NumDiags()
	clk := clock{res: &res, thresholdNs: s.opts.ThresholdNs}
	if clk.cpuPhase(&res.Phase1Ns, s.cpuPhase(par.CPUTile, pl.P1Lo, pl.P1Hi)) {
		return res, nil
	}
	if sch, ok := buildGPUSchedule(pl, s.opts.GPUs); ok {
		t := s.tape(&sch)
		clk.startGPU(s.sys, &sch)
		for i, ns := range s.periods[t.off:t.end] {
			if clk.period(ns, i < t.swaps) {
				return Estimate(s.sys, s.inst, par, s.opts)
			}
		}
		t.fold(&res)
		if clk.finishGPU(s.sys, &sch) {
			return res, nil
		}
	}
	clk.cpuPhase(&res.Phase3Ns, s.cpuPhase(par.CPUTile, pl.P3Lo, pl.P3Hi))
	return res, nil
}

// cpuPhase returns cpuPhaseNs for the bound instance, computing each
// distinct phase once.
func (s *Sweep) cpuPhase(ct, lo, hi int) float64 {
	k := cpuKey{ct, lo, hi}
	ns, ok := s.cpu[k]
	if !ok {
		ns = cpuPhaseNs(s.sys, s.inst, ct, lo, hi)
		s.cpu[k] = ns
	}
	return ns
}

// tape returns the recorded walk of sch, walking it on first use.
func (s *Sweep) tape(sch *gpuSchedule) *gpuTape {
	k := gpuKey{sch.pl.GLo, sch.pl.GHi, sch.period, sch.gpuTile, sch.nGPU}
	if i, ok := s.index[k]; ok {
		return &s.tapes[i]
	}
	t := gpuTape{off: len(s.periods)}
	m := meter{costs: s.costs, dev: -1}
	sch.walk(false, m.launch, func(swapAfter bool) bool {
		s.periods = append(s.periods, m.endPeriod())
		if swapAfter {
			t.swaps++
		}
		return true
	})
	t.end = len(s.periods)
	t.launchTotals = m.launchTotals
	s.index[k] = len(s.tapes)
	s.tapes = append(s.tapes, t)
	return &s.tapes[len(s.tapes)-1]
}
