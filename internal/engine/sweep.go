package engine

import (
	"repro/internal/hw"
	"repro/internal/plan"
)

// A Sweep gives Estimate's runtime and censoring for many configurations
// of one instance, sharing the work they have in common. A plan's GPU
// phase depends on its band, halo, gpu-tile and device count but never on
// its cpu-tile, and a CPU phase depends only on its cpu-tile and diagonal
// range. So a Sweep computes each distinct CPU phase once and keeps a
// two-level tape of each distinct GPU schedule:
//
//   - The shape tape holds the schedule's launch structure, which depends
//     only on the grid shape: which device covers how many SIMT passes in
//     each launch, and where the periods end. It stores what the walk
//     yields, run-length encoded twice over: consecutive launches of one
//     device with the same pass count form one run (record also joins two
//     that meet), and each run of identical periods is stored once with
//     its length (on a dual-GPU schedule a run holds tens of periods). A
//     schedule is walked once per shape: shape tapes survive Reset for as
//     long as the rows, columns, live fraction, Options.GPUs and device
//     widths stay the same, so the instances of one shape that differ
//     only in tsize or dsize share them.
//   - The instance tape replays a shape tape with the bound instance's
//     launch costs into each period's lockstep duration. A launch's
//     duration depends on its points only through its pass count, so it
//     is read from a per-(device, gpu-tile) table indexed by passes, each
//     entry computed once by hw.LaunchCost; the replay divides nothing.
//     The meter resets at every period end, so each run of identical
//     periods goes through it once: one pass gives the length, with the
//     same bits, of every repetition.
//
// A configuration's runtime starts from its own Phase 1 time and adds the
// GPU phase in exactly the order Estimate does (start-up, input
// transfers, then each period's lockstep time and halo exchange with the
// censoring check at its end, then the output transfers), through the same
// clock. RTime therefore returns Estimate's runtime and censoring, bit for
// bit. A Sweep keeps no launch counters, so it gives no breakdown.
//
// The zero value is ready for Reset. A Sweep is not safe for concurrent
// use; give each worker its own, and reuse it across instances so its
// tapes and their storage are reused too.
type Sweep struct {
	sys   hw.System
	inst  plan.Instance
	opts  Options
	costs []hw.LaunchCost

	// Shape level: kept across Reset while the shape key is unchanged.
	shape  shapeKey
	widths []int // each device's SIMT width
	index  map[gpuKey]int
	shapes []shapeTape
	// spans backs every shape tape's periods and runs every period's
	// launches, so two growing buffers serve every shape a worker sweeps.
	spans []periodSpan
	runs  []launchRun

	// Instance level: rebuilt by each Reset.
	cpu     map[cpuKey]float64
	tapes   []gpuTape // tapes[i] replays shapes[i]
	periods []periodNs
	durs    []durTable
	devDur  []int // per device, the durs entry of the schedule being replayed
}

// cpuKey identifies a CPU phase of the bound instance.
type cpuKey struct{ ct, lo, hi int }

// gpuKey holds everything a GPU schedule walk reads beyond the shape key.
type gpuKey struct{ gLo, gHi, period, gpuTile, nGPU int }

// shapeKey holds what a shape tape depends on besides its gpuKey and the
// device widths.
type shapeKey struct {
	rows, cols int
	liveFrac   float64
	gpus       int
}

// shapeTape records the launch structure of one walk of a GPU schedule:
// its periods, at Sweep.spans[off:end]. A halo exchange follows every
// period but the last on a multi-GPU schedule, so the first swaps periods
// are the ones followed by one.
type shapeTape struct {
	off, end int
	swaps    int
}

// periodSpan is n consecutive periods that each launch Sweep.runs[off:end].
type periodSpan struct{ off, end, n int32 }

// gpuTape is a shape tape replayed with the bound instance's launch
// costs: its periods' lockstep durations, at Sweep.periods[off:end]. ok
// is unset until the replay.
type gpuTape struct {
	off, end int
	ok       bool
}

// periodNs is n consecutive periods lasting ns each.
type periodNs struct {
	ns float64
	n  int
}

// durTable holds the durations of a launch on device dev of a schedule
// with the given gpu-tile (which fixes its sync steps and inflation),
// indexed by SIMT pass count.
type durTable struct {
	dev, gpuTile int
	ns           []float64
}

// Reset binds the sweep to one instance, system and option set. Shape
// tapes are kept when the shape key and device widths match the previous
// binding; all storage is kept for reuse.
func (s *Sweep) Reset(sys hw.System, inst plan.Instance, opts Options) {
	s.sys, s.inst, s.opts = sys, inst, opts
	s.costs = launchCosts(s.costs[:0], sys, inst, len(sys.GPUs))
	if s.cpu == nil {
		s.cpu = make(map[cpuKey]float64)
		s.index = make(map[gpuKey]int)
	}
	clear(s.cpu)
	rows, cols := inst.Shape()
	shape := shapeKey{rows: rows, cols: cols, liveFrac: inst.LiveFrac(), gpus: opts.GPUs}
	if shape != s.shape || !s.sameWidths() {
		s.shape = shape
		s.widths = s.widths[:0]
		for i := range s.costs {
			s.widths = append(s.widths, s.costs[i].Width())
		}
		clear(s.index)
		s.shapes, s.spans, s.runs = s.shapes[:0], s.spans[:0], s.runs[:0]
		s.tapes = s.tapes[:0]
	}
	clear(s.tapes)
	s.periods = s.periods[:0]
	for i := range s.durs {
		s.durs[i].ns = s.durs[i].ns[:0]
	}
}

// sameWidths reports whether the bound devices have the recorded widths.
func (s *Sweep) sameWidths() bool {
	if len(s.widths) != len(s.costs) {
		return false
	}
	for i, w := range s.widths {
		if s.costs[i].Width() != w {
			return false
		}
	}
	return true
}

// RTime returns the RTimeNs and Censored fields of Estimate(par), which
// is all the exhaustive search keeps.
func (s *Sweep) RTime(par plan.Params) (ns float64, censored bool, err error) {
	pl, err := prepare(s.sys, s.inst, par, s.opts)
	if err != nil {
		return 0, false, err
	}
	var res Result
	clk := clock{res: &res, thresholdNs: s.opts.ThresholdNs}
	if clk.cpuPhase(&res.Phase1Ns, s.cpuPhase(par.CPUTile, pl.P1Lo, pl.P1Hi)) {
		return res.RTimeNs, true, nil
	}
	if sch, ok := buildGPUSchedule(pl, s.opts.GPUs); ok {
		i := s.tape(&sch)
		t := s.tapes[i]
		clk.startGPU(s.sys, &sch)
		if clk.replay(s.periods[t.off:t.end], s.shapes[i].swaps) || clk.finishGPU(s.sys, &sch) {
			return res.RTimeNs, true, nil
		}
	}
	clk.cpuPhase(&res.Phase3Ns, s.cpuPhase(par.CPUTile, pl.P3Lo, pl.P3Hi))
	return res.RTimeNs, res.Censored, nil
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

// tape returns the index of sch's shape and instance tapes, recording
// the shape tape on the schedule's first use on this shape and replaying
// it on its first use by this instance.
func (s *Sweep) tape(sch *gpuSchedule) int {
	k := gpuKey{sch.pl.GLo, sch.pl.GHi, sch.period, sch.gpuTile, sch.nGPU}
	i, ok := s.index[k]
	if !ok {
		i = len(s.shapes)
		s.index[k] = i
		s.shapes = append(s.shapes, s.record(sch))
		s.tapes = append(s.tapes, gpuTape{})
	}
	if !s.tapes[i].ok {
		s.tapes[i] = s.replay(sch, s.shapes[i])
	}
	return i
}

// record walks sch and appends its runs to the shape-level buffers, one
// span per run of identical periods.
func (s *Sweep) record(sch *gpuSchedule) shapeTape {
	t := shapeTape{off: len(s.spans)}
	first := len(s.runs) // the current period's first run
	sch.walk(s.costs, func(_ int, r launchRun) {
		if n := len(s.runs); n > first && s.runs[n-1].dev == r.dev && s.runs[n-1].passes == r.passes {
			s.runs[n-1].n += r.n
			return
		}
		s.runs = append(s.runs, r)
	}, func(_, n, swaps int) bool {
		t.swaps += swaps
		s.spans = append(s.spans, periodSpan{off: int32(first), end: int32(len(s.runs)), n: int32(n)})
		first = len(s.runs)
		return true
	})
	t.end = len(s.spans)
	return t
}

// replay costs shape tape sh of schedule sch with the bound instance's
// launch costs and appends its periods to the instance-level buffer. The
// meter resets at every period end, so one pass over a span's launches
// gives the length of each of its identical periods.
func (s *Sweep) replay(sch *gpuSchedule, sh shapeTape) gpuTape {
	s.bindDurs(sch)
	t := gpuTape{off: len(s.periods), ok: true}
	m := meter{costs: s.costs, dev: -1}
	for _, sp := range s.spans[sh.off:sh.end] {
		s.feed(&m, sch, s.runs[sp.off:sp.end])
		s.periods = append(s.periods, periodNs{ns: m.endPeriod(), n: int(sp.n)})
	}
	t.end = len(s.periods)
	return t
}

// feed runs one period's launches of schedule sch through m.
func (s *Sweep) feed(m *meter, sch *gpuSchedule, runs []launchRun) {
	for _, r := range runs {
		m.add(int(r.dev), s.durationNs(sch, r), int(r.n))
	}
}

// bindDurs points each of sch's devices at its duration table.
func (s *Sweep) bindDurs(sch *gpuSchedule) {
	s.devDur = s.devDur[:0]
	for dev := 0; dev < sch.nGPU; dev++ {
		s.devDur = append(s.devDur, s.durTable(dev, sch.gpuTile))
	}
}

// durTable returns the index in durs of dev's table at gpuTile, adding an
// empty one on first use.
func (s *Sweep) durTable(dev, gpuTile int) int {
	for i := range s.durs {
		if s.durs[i].dev == dev && s.durs[i].gpuTile == gpuTile {
			return i
		}
	}
	s.durs = append(s.durs, durTable{dev: dev, gpuTile: gpuTile})
	return len(s.durs) - 1
}

// durationNs returns the duration of one launch of run r of schedule sch,
// filling the device's table up to r's pass count on first need.
func (s *Sweep) durationNs(sch *gpuSchedule, r launchRun) float64 {
	t := &s.durs[s.devDur[r.dev]]
	c := &s.costs[r.dev]
	for p := len(t.ns); p <= int(r.passes); p++ {
		t.ns = append(t.ns, c.DurationNs(p*c.Width(), sch.syncSteps, sch.inflate))
	}
	return t.ns[r.passes]
}
