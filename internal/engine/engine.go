// Package engine executes three-phase wavefront plans on the modeled
// heterogeneous systems. It provides two equivalent views of a run:
//
//   - Estimate: a fast analytic walk of the plan that returns virtual time
//     and a cost breakdown without touching any data. A Sweep gives the
//     same answers for many configurations of one instance; the
//     exhaustive search evaluates hundreds of thousands of
//     configurations through it.
//   - Simulate: a functional discrete-event simulation through the simcl
//     runtime that computes real cell values while accumulating exactly
//     the same modeled costs. Tests assert that both paths agree, so the
//     cheap path is trustworthy.
//
// Both derive every duration from the hw cost models. The GPU phase's
// choreography (swap periods, per-period device lockstep, each device's
// kernel launches, halo swaps, transfer sizes) is defined once, as the
// gpuSchedule walk. A launch's duration depends on its points only
// through its SIMT pass count, so the walk yields, for each period and
// device, runs of consecutive launches with equal pass count; it finds
// where a run ends by a binary search on the exact per-launch point
// count within the ranges where the diagonal lengths, cut by the
// period's partitions, make that count monotone, without visiting every
// diagonal. Simulate expands each run into its launches' row segments
// (devRows) and simcl kernel requests. For the analytic path a meter
// folds the launches into period lengths, one launch at a time in walk
// order, and a clock sums the run in execution order: Phase 1, GPU
// start-up and input transfers, each period and its halo swap with the
// censoring check at its end, output transfers, Phase 3. Estimate feeds
// the clock from the live walk, timing each run once, without
// allocating. A Sweep keeps a two-level tape per distinct GPU schedule,
// since a schedule never depends on the cpu-tile. The shape tape holds
// the walk's runs (each run's device, pass count and length, and the
// period boundaries), which depend only on the grid shape; it is walked
// once per shape, with consecutive identical periods stored once with a
// repeat count. The instance tape replays it with the instance's launch
// costs, reading each run's duration from a per-(device, gpu-tile)
// table indexed by pass count, into period lengths, timing each run of
// identical periods once; the launch counters are summed over the full
// walk only when a breakdown first needs them. Every configuration
// sharing the schedule replays the instance tape through the same clock
// from its own Phase 1 time.
//
// Estimate's output is bit-identical across refactors: the golden tests
// hash every quick-space search point and a set of full breakdowns,
// through both Estimate and a Sweep, so any change to a float
// expression or to a summation order must be deliberate. Trained tuners,
// served runtimes and efficiencies all rest on those bits.
package engine

import (
	"fmt"
	"math"

	"repro/internal/cpuexec"
	"repro/internal/grid"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/plan"
	"repro/internal/simcl"
)

// SerialTile is the tile side used by the optimized sequential baseline.
const SerialTile = 8

// DefaultThresholdNs is the paper's 90-second exploration cutoff.
const DefaultThresholdNs = 90e9

// Options control an estimate.
type Options struct {
	// ThresholdNs censors runs longer than this; 0 disables censoring.
	ThresholdNs float64
	// GPUs, when > 2, widens a multi-GPU configuration (halo >= 0) to
	// that many devices — the paper's future-work extension beyond two
	// GPUs. It is clamped to the system's device count and ignored for
	// single-GPU and all-CPU configurations.
	GPUs int
	// CollectTrace records a command timeline during Simulate (ignored by
	// Estimate); the trace is returned in Result.Trace.
	CollectTrace bool
}

// Breakdown itemizes where the virtual time went.
type Breakdown struct {
	Phase1Ns float64 // leading CPU triangle
	GPUNs    float64 // whole GPU phase including transfers and swaps
	Phase3Ns float64 // trailing CPU triangle

	StartupNs float64 // device context creation and build
	LaunchNs  float64 // accumulated kernel launch overhead
	ComputeNs float64 // on-device compute including barrier steps
	XferNs    float64 // input + output transfers
	SwapNs    float64 // halo exchange transfers

	Kernels         int
	Swaps           int
	RedundantPoints int
	// FrontierSteps is the number of barrier-separated wavefront steps
	// of the executed schedule. The modeled three-phase run sweeps the
	// anti-diagonal frontier, so it equals the diagonal count; consumers
	// must use it (not grid.NumDiagsRect recomputed from the shape) for
	// progress accounting, because irregular frontier executions report
	// their own, generally smaller, step counts.
	FrontierSteps int
}

// Result is the outcome of one modeled run.
type Result struct {
	// RTimeNs is the end-to-end virtual runtime.
	RTimeNs float64
	// Censored is set when the run exceeded Options.ThresholdNs and was
	// cut off (the paper's 90 s rule); RTimeNs then holds the threshold.
	Censored bool
	Plan     *plan.Plan
	// Trace holds the command timeline when Options.CollectTrace was set
	// on a Simulate call.
	Trace *simcl.Trace
	Breakdown
}

// RTimeSec returns the runtime in seconds.
func (r Result) RTimeSec() float64 { return r.RTimeNs / 1e9 }

// validate checks that the system can satisfy the plan's device demands.
func validate(sys hw.System, par plan.Params) error {
	need := par.GPUCount()
	if need > sys.MaxGPUs() {
		return fmt.Errorf("engine: config needs %d GPU(s) but %s has %d usable",
			need, sys.Name, sys.MaxGPUs())
	}
	return nil
}

// cpuPhaseNs models a tiled parallel CPU phase over cell-diagonals
// [lo, hi]: each tile-diagonal contributes its cells divided by the
// available parallelism (capped by the tile wavefront width) plus one
// barrier.
func cpuPhaseNs(sys hw.System, inst plan.Instance, ct, lo, hi int) float64 {
	if hi < lo {
		return 0
	}
	rows, cols := inst.Shape()
	// Masked instances only pay for their live fraction of each
	// tile-diagonal: dead cells are no-ops (skipped entirely on the
	// frontier path), so charging the full rectangle would overestimate
	// triangular and sparse workloads.
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes()) * inst.LiveFrac()
	total := 0.0
	for td := range plan.CPUTileDiagsRect(rows, cols, ct, lo, hi) {
		p := math.Min(float64(td.NTiles), sys.CPU.EffParallel)
		total += float64(td.Cells)*per/p + sys.CPU.TileBarrierNs
	}
	return total
}

// SerialNs returns the optimized sequential baseline: a single-core sweep
// with the serial-best tile size and no synchronization.
func SerialNs(sys hw.System, inst plan.Instance) float64 {
	ct := SerialTile
	if ct > inst.MinSide() {
		ct = inst.MinSide()
	}
	per := sys.CPU.PointNs(inst.TSize, ct, inst.ElemBytes())
	return float64(inst.WorkCells()) * per
}

// MeasureStepsNs returns the modeled runtime of actually executing a
// tuning decision on sys — the stand-in for wall-clock timing a real run,
// used by the job executor: the optimized sequential baseline when serial
// is set, otherwise the uncensored hybrid estimate of par. It also returns
// the executed schedule's wavefront step count: the modeled run's
// FrontierSteps for a hybrid execution, and 1 for the serial baseline (a
// single uninterrupted row-major sweep has no inter-step barriers).
// Progress and throughput reporting must derive step totals from here
// rather than recomputing NumDiags from the shape, which misstates
// irregular runs.
func MeasureStepsNs(sys hw.System, inst plan.Instance, serial bool, par plan.Params) (float64, int, error) {
	if serial {
		return SerialNs(sys, inst), 1, nil
	}
	res, err := Estimate(sys, inst, par, Options{})
	if err != nil {
		return 0, 0, err
	}
	return res.RTimeNs, res.FrontierSteps, nil
}

// gpuSchedule is the device-side choreography of a plan's GPU phase: the
// devices taking part, their transfers, and — through walk — the swap
// periods and kernel launches. Estimate, Sweep and Simulate all consume
// walk, so the analytic and functional paths cannot drift apart.
type gpuSchedule struct {
	pl         *plan.Plan
	rows, cols int
	nGPU       int
	inBytes    int // the two predecessor diagonals feeding the band
	outCells   int // the band region returned to the host
	elem       int
	swapByte   int
	period     int // diagonals between halo exchanges
	gpuTile    int
	syncSteps  int
	inflate    float64
	liveFrac   float64
}

// span is one swap period of a walk: m diagonals from ds. Its partition
// cuts are taken from diagonal ds, which starts at row a0 and has l0
// cells. Launch c of a device covers the period's diagonals from
// ds+c*gpuTile, at most gpuTile of them.
type span struct{ ds, m, a0, l0 int }

// launchRun is n consecutive launches on device dev of passes SIMT passes
// each.
type launchRun struct{ dev, passes, n int32 }

type diagSeg struct {
	d, rowLo, rowHi int // rows [rowLo, rowHi] of diagonal d; empty if lo>hi
}

// buildGPUSchedule sets up the phase-2 choreography for a plan; ok is false
// when the plan has no GPU phase. wantGPUs > 2 widens a dual-GPU
// configuration to that many devices.
func buildGPUSchedule(pl *plan.Plan, wantGPUs int) (sch gpuSchedule, ok bool) {
	nGPU := pl.Par.GPUCount()
	if nGPU == 2 && wantGPUs > 2 {
		nGPU = wantGPUs
	}
	if nGPU == 0 || pl.GPUDiags() == 0 {
		return gpuSchedule{}, false
	}
	rows, cols := pl.Inst.Shape()
	elem := pl.Inst.ElemBytes()
	sch = gpuSchedule{
		pl: pl, rows: rows, cols: cols, nGPU: nGPU,
		inBytes:  (grid.DiagLenRect(rows, cols, pl.GLo-1) + grid.DiagLenRect(rows, cols, pl.GLo-2)) * elem,
		outCells: pl.GPUCells(),
		elem:     elem,
		period:   pl.GPUDiags(),
		gpuTile:  pl.Par.GPUTile,
		inflate:  1,
		liveFrac: pl.Inst.LiveFrac(),
	}
	if nGPU >= 2 {
		sch.period = pl.SwapPeriod()
		sch.swapByte = max(pl.Par.Halo, 1) * sch.elem
	}
	if g := sch.gpuTile; g > 1 {
		sch.inflate = float64(2*g-1) / float64(g)
		sch.syncSteps = 2*g - 1
	}
	return sch, true
}

// xferIn returns each device's equal share of the input transfer.
func (s *gpuSchedule) xferIn() int { return s.inBytes / s.nGPU }

// xferOut returns device dev's share of the output transfer; the last
// device absorbs the rounding remainder.
func (s *gpuSchedule) xferOut(dev int) int {
	if dev == s.nGPU-1 {
		return (s.outCells - (s.nGPU-1)*(s.outCells/s.nGPU)) * s.elem
	}
	return s.outCells / s.nGPU * s.elem
}

// walk runs the GPU phase in execution order: for each swap period, every
// device's launches (device 0 first, each device's in diagonal order),
// then endPeriod, told whether a halo exchange follows the period; each of
// the nGPU-1 partition boundaries then moves swapByte bytes through the
// host (2 transfers per boundary). The walk stops when endPeriod returns
// false. It hands the launches to onRun as runs of consecutive launches
// of equal pass count on costs' device widths, each with its period and
// the index of its first launch there; launches with no points are left
// out. The walk allocates nothing.
//
// A launch's duration depends on its points only through its pass count,
// so a run is timed once. Runs are found without visiting every launch:
// pieces splits a device's launches into ranges of monotone pass count,
// and runs binary-searches each range on the exact launchPoints.
func (s *gpuSchedule) walk(costs []hw.LaunchCost, onRun func(p span, c int, r launchRun), endPeriod func(swapAfter bool) bool) {
	pl := s.pl
	var cuts [11]int
	for ds := pl.GLo; ds <= pl.GHi; ds += s.period {
		p := span{
			ds: ds, m: min(s.period, pl.GHi-ds+1),
			a0: grid.DiagStartRowRect(s.rows, s.cols, ds),
			l0: grid.DiagLenRect(s.rows, s.cols, ds),
		}
		nl := (p.m + s.gpuTile - 1) / s.gpuTile
		for dev := 0; dev < s.nGPU; dev++ {
			lc := &costs[dev]
			if nl <= 3 {
				// Too few launches to search: each is a run.
				for c := range nl {
					if v := lc.Passes(s.launchPoints(p, dev, c, nil)); v > 0 {
						onRun(p, c, launchRun{dev: int32(dev), passes: int32(v), n: 1})
					}
				}
				continue
			}
			n := s.pieces(&cuts, p, dev, nl)
			for i := 0; i+1 < n; i++ {
				s.runs(p, dev, cuts[i], cuts[i+1], lc, onRun)
			}
		}
		if !endPeriod(s.nGPU >= 2 && ds+p.m <= pl.GHi) {
			return
		}
	}
}

// pieces fills cuts with the launch indices that split device dev's nl
// launches of period p into ranges of monotone pass count, in order from
// 0 to nl, and returns how many it filled. A device's row range on a
// diagonal (devRows) is the diagonal clipped to the period's partition
// cuts, so its length is piecewise linear in the period's diagonal
// offset k. The breakpoints are where the diagonal's start row leaves
// row 0 (diagonal cols-1) and its end row reaches the last row (diagonal
// rows-1), and, between partitions, where the device's lower cut minus
// its shrinking overlap meets row 0 and where its upper cut meets the
// diagonal's end. Each launch holding a breakpoint, and a last launch
// shorter than gpuTile, is cut out on its own; every other launch sums
// diagonals of one linear piece, so between the cuts the point count,
// and with it the pass count (liveFrac rounding included), is monotone.
func (s *gpuSchedule) pieces(cuts *[11]int, p span, dev, nl int) int {
	bps := [4]int{s.cols - 1 - p.ds, s.rows - 1 - p.ds, -1, -1}
	if s.nGPU > 1 {
		if dev > 0 {
			bps[2] = p.m - 1 - (p.a0 + dev*p.l0/s.nGPU)
		}
		if dev < s.nGPU-1 {
			bps[3] = p.a0 + (dev+1)*p.l0/s.nGPU - 1 - p.ds
		}
	}
	n := 1
	cuts[0] = 0
	for _, k := range bps {
		if k >= 0 && k < p.m {
			c := k / s.gpuTile
			cuts[n], cuts[n+1] = c, c+1
			n += 2
		}
	}
	if p.m%s.gpuTile != 0 {
		cuts[n] = nl - 1
		n++
	}
	cuts[n] = nl
	n++
	if n == 2 {
		return n
	}
	// Insertion sort, dropping duplicates.
	out := 0
	for i := 0; i < n; i++ {
		v := cuts[i]
		j := out
		for j > 0 && cuts[j-1] > v {
			j--
		}
		if j > 0 && cuts[j-1] == v {
			continue
		}
		copy(cuts[j+1:out+1], cuts[j:out])
		cuts[j] = v
		out++
	}
	return out
}

// runs hands onRun device dev's runs over launches [c1, c2) of period p,
// a range on which the pass count on lc's device is monotone. The
// range's last launch is read first: a run that reaches it ends the
// range. Otherwise, from each run's first launch, the search gallops to a
// launch of another pass count and binary-searches the gap between, so a
// run of n launches costs about 2*log2(n) evaluations, and a run of one
// launch a single one.
func (s *gpuSchedule) runs(p span, dev, c1, c2 int, lc *hw.LaunchCost, onRun func(p span, c int, r launchRun)) {
	passes := func(c int) int { return lc.Passes(s.launchPoints(p, dev, c, nil)) }
	c, v := c1, passes(c1)
	last, lastV := c2-1, v
	if last > c {
		lastV = passes(last)
	}
	for v != lastV {
		// passes(lo) == v, and hi is the nearest launch known to differ.
		lo, hi, next := c, last, lastV
		for step := 1; lo+step < hi; step *= 2 {
			if q := passes(lo + step); q != v {
				hi, next = lo+step, q
				break
			}
			lo += step
		}
		for hi-lo > 1 {
			mid := lo + (hi-lo)/2
			if q := passes(mid); q == v {
				lo = mid
			} else {
				hi, next = mid, q
			}
		}
		if v > 0 {
			onRun(p, c, launchRun{dev: int32(dev), passes: int32(v), n: int32(lo - c + 1)})
		}
		c, v = hi, next
	}
	if v > 0 {
		onRun(p, c, launchRun{dev: int32(dev), passes: int32(v), n: int32(c2 - c)})
	}
}

// launchPoints returns the points launch c of device dev in period p is
// charged for: the cells of its row segments, scaled to the instance's
// live share when it is masked. When segs is not nil, the launch's
// non-empty row segments are appended to it.
func (s *gpuSchedule) launchPoints(p span, dev, c int, segs *[]diagSeg) int {
	points := 0
	for k := c * s.gpuTile; k < min((c+1)*s.gpuTile, p.m); k++ {
		if lo, hi := s.devRows(p.ds+k, dev, p.a0, p.l0, p.m-1-k); hi >= lo {
			points += hi - lo + 1
			if segs != nil {
				*segs = append(*segs, diagSeg{d: p.ds + k, rowLo: lo, rowHi: hi})
			}
		}
	}
	if s.liveFrac < 1 && points > 0 {
		// Charge the launch for the live share of its covered cells. The
		// functional segments still span every cell — masked kernels
		// write their dead region's zeros, so the simulated matrix stays
		// identical to a dense sweep — but timing reflects real work only.
		points = max(int(math.Round(float64(points)*s.liveFrac)), 1)
	}
	return points
}

// devRows returns the inclusive row range device dev computes on diagonal
// d. The period's partition cuts come from its first diagonal, which
// starts at row a0 and has l0 cells: device j's share starts at row
// a0 + j*l0/nGPU. A device below a partition boundary additionally
// computes a shrinking overlap of ov rows above its cut (the redundant
// halo computation of Section 2.1), because the wavefront dependencies
// point towards lower rows. With one device the whole diagonal is
// returned.
func (s *gpuSchedule) devRows(d, dev, a0, l0, ov int) (lo, hi int) {
	a := grid.DiagStartRowRect(s.rows, s.cols, d)
	b := a + grid.DiagLenRect(s.rows, s.cols, d) - 1
	if s.nGPU == 1 {
		return a, b
	}
	lo, hi = a, b
	if dev > 0 {
		lo = max(a0+dev*l0/s.nGPU-ov, a)
	}
	if dev < s.nGPU-1 {
		hi = min(a0+(dev+1)*l0/s.nGPU-1, b)
	}
	return lo, hi
}

// prepare validates a configuration against sys and builds its plan.
func prepare(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (*plan.Plan, error) {
	if err := validate(sys, par); err != nil {
		return nil, err
	}
	if opts.GPUs > len(sys.GPUs) {
		return nil, fmt.Errorf("engine: %d GPUs requested but %s has %d",
			opts.GPUs, sys.Name, len(sys.GPUs))
	}
	return plan.Build(inst, par)
}

// clock sums a run's virtual time in execution order and applies the
// censoring rule at each check point. It is the one place where a run's
// time is added up: Estimate drives its GPU phase from the live walk and
// a Sweep from a recorded tape, so both produce the same bits.
type clock struct {
	res         *Result
	thresholdNs float64
	gpuStart    float64 // RTimeNs when the GPU phase began
	swapNs      float64 // one halo exchange: 2 transfers per boundary
}

// over censors the run once it has passed the threshold.
func (c *clock) over() bool {
	if c.thresholdNs > 0 && c.res.RTimeNs > c.thresholdNs {
		c.res.RTimeNs = c.thresholdNs
		c.res.Censored = true
		return true
	}
	return false
}

// cpuPhase records a CPU phase of ns in *phase and adds it to the clock;
// it reports whether the run is censored.
func (c *clock) cpuPhase(phase *float64, ns float64) bool {
	*phase = ns
	c.res.RTimeNs += ns
	return c.over()
}

// startGPU adds the GPU phase's device start-up, which is concurrent
// across devices, and its input transfers, which serialize on the link.
func (c *clock) startGPU(sys hw.System, sch *gpuSchedule) {
	res := c.res
	c.gpuStart = res.RTimeNs
	// Identical models per system make max == single value, but take max
	// for generality.
	var startup float64
	for dev := 0; dev < sch.nGPU; dev++ {
		startup = math.Max(startup, sys.GPUs[dev].StartupNs)
		res.StartupNs += sys.GPUs[dev].StartupNs
	}
	res.RTimeNs += startup
	for dev := 0; dev < sch.nGPU; dev++ {
		x := sys.Link.XferNs(sch.xferIn())
		res.XferNs += x
		res.RTimeNs += x
	}
	if sch.nGPU >= 2 {
		c.swapNs = float64(2*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
	}
}

// replay adds swap periods in order: each period's time, then, for the
// first swaps periods, the halo exchange that follows it. The running
// sums stay in locals rather than being stored through res at every
// period. Estimate replays one period at a time as its walk ends it, a
// Sweep a recorded tape. It reports whether the run is censored.
func (c *clock) replay(ps []periodNs, swaps int) bool {
	res := c.res
	rt, swapNs, nSwaps := res.RTimeNs, res.SwapNs, res.Swaps
	k := 0
	for _, p := range ps {
		for range p.n {
			rt += p.ns
			if k < swaps {
				swapNs += c.swapNs
				rt += c.swapNs
				nSwaps++
			}
			k++
			if c.thresholdNs > 0 && rt > c.thresholdNs {
				res.RTimeNs, res.SwapNs, res.Swaps = rt, swapNs, nSwaps
				return c.over()
			}
		}
	}
	res.RTimeNs, res.SwapNs, res.Swaps = rt, swapNs, nSwaps
	return false
}

// finishGPU adds the output transfers and closes the GPU phase; it
// reports whether the run is censored.
func (c *clock) finishGPU(sys hw.System, sch *gpuSchedule) bool {
	res := c.res
	for dev := 0; dev < sch.nGPU; dev++ {
		x := sys.Link.XferNs(sch.xferOut(dev))
		res.XferNs += x
		res.RTimeNs += x
	}
	res.RedundantPoints = sch.pl.RedundantPoints()
	res.GPUNs = res.RTimeNs - c.gpuStart
	return c.over()
}

// launchTotals are the GPU phase's per-launch breakdown counters.
type launchTotals struct {
	kernels             int
	launchNs, computeNs float64
}

// fold copies the counters into a breakdown.
func (t launchTotals) fold(res *Result) {
	res.Kernels, res.LaunchNs, res.ComputeNs = t.kernels, t.launchNs, t.computeNs
}

// meter times a walk's launches. Devices run each period in lockstep: the
// period lasts as long as its busiest device (span), each device's time
// being the sum of its launches (devNs).
type meter struct {
	costs       []hw.LaunchCost // per device, bound once rather than per launch
	span, devNs float64
	dev         int
	launchTotals
}

// launchCosts binds sys's first n devices to inst's granularity,
// appending to dst.
func launchCosts(dst []hw.LaunchCost, sys hw.System, inst plan.Instance, n int) []hw.LaunchCost {
	for _, g := range sys.GPUs[:n] {
		dst = append(dst, g.LaunchCost(inst.TSize, sys.CPU.PerIterNs, inst.DSize))
	}
	return dst
}

// add accounts one launch on device dev lasting dur. It is the only place
// a launch is folded into a period and the breakdown counters, for the
// live walk and a Sweep's replay alike.
func (m *meter) add(dev int, dur float64) {
	if dev != m.dev {
		m.span = math.Max(m.span, m.devNs)
		m.devNs = 0
		m.dev = dev
	}
	launchNs := m.costs[dev].LaunchNs
	m.devNs += dur
	m.kernels++
	m.launchNs += launchNs
	m.computeNs += dur - launchNs
}

// endPeriod returns the finished period's duration and resets the span.
func (m *meter) endPeriod() float64 {
	ns := math.Max(m.span, m.devNs)
	m.span, m.devNs, m.dev = 0, 0, -1
	return ns
}

// Estimate models a run of inst with parameters par on sys and returns
// its virtual time and breakdown without computing any data.
func Estimate(sys hw.System, inst plan.Instance, par plan.Params, opts Options) (Result, error) {
	pl, err := prepare(sys, inst, par, opts)
	if err != nil {
		return Result{}, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	clk := clock{res: &res, thresholdNs: opts.ThresholdNs}
	if clk.cpuPhase(&res.Phase1Ns, cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)) {
		return res, nil
	}
	if sch, ok := buildGPUSchedule(pl, opts.GPUs); ok {
		clk.startGPU(sys, &sch)
		// Systems have a handful of devices, so the cost table stays on
		// the stack.
		var table [4]hw.LaunchCost
		m := meter{costs: launchCosts(table[:0], sys, inst, sch.nGPU), dev: -1}
		cut := false
		// A run is timed once, and a device's pass count mostly repeats
		// from one period to the next, so each device keeps its last
		// run's duration.
		type lastRun struct {
			passes int32
			ns     float64
		}
		var lastBuf [4]lastRun
		last := lastBuf[:0]
		for range sch.nGPU {
			last = append(last, lastRun{passes: -1})
		}
		sch.walk(m.costs, func(_ span, _ int, r launchRun) {
			d := &last[r.dev]
			if d.passes != r.passes {
				c := &m.costs[r.dev]
				d.passes, d.ns = r.passes, c.DurationNs(int(r.passes)*c.Width(), sch.syncSteps, sch.inflate)
			}
			for range r.n {
				m.add(int(r.dev), d.ns)
			}
		}, func(swapAfter bool) bool {
			swaps := 0
			if swapAfter {
				swaps = 1
			}
			cut = clk.replay([]periodNs{{m.endPeriod(), 1}}, swaps)
			return !cut
		})
		m.fold(&res)
		if cut || clk.finishGPU(sys, &sch) {
			return res, nil
		}
	}
	clk.cpuPhase(&res.Phase3Ns, cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi))
	return res, nil
}

// Simulate executes a functional run of kernel k over the shape of inst
// with parameters par on the modeled system: real cell values are
// computed via the simulated OpenCL runtime and CPU phases, and the
// returned result carries the virtual time of the discrete-event
// simulation. The granularity parameters (TSize, DSize) are always taken
// from the kernel.
func Simulate(sys hw.System, inst plan.Instance, k kernels.Kernel, par plan.Params, opts Options) (Result, *grid.Grid, error) {
	inst.TSize, inst.DSize = k.TSize(), k.DSize()
	pl, err := prepare(sys, inst, par, opts)
	if err != nil {
		return Result{}, nil, err
	}
	res := Result{Plan: pl}
	res.FrontierSteps = inst.NumDiags()
	rows, cols := inst.Shape()
	g := grid.NewRect(rows, cols, k.DSize())
	p := simcl.NewPlatform(sys)
	p.Functional = true
	if opts.CollectTrace {
		p.Trace = &simcl.Trace{}
		res.Trace = p.Trace
	}
	eng := p.Eng

	sch, gpu := buildGPUSchedule(pl, opts.GPUs)
	var steps []func(next func())

	// Phase 1: leading CPU triangle.
	if pl.P1Hi >= pl.P1Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P1Lo, pl.P1Hi)
		res.Phase1Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				// A dense diagonal frontier cannot dead-end, so the
				// frontier run never errors here.
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P1Lo, pl.P1Hi))
				next()
			})
		})
	}

	// Phase 2: the offloaded band.
	if gpu {
		var gpuT0 float64
		steps = append(steps,
			func(next func()) {
				gpuT0 = eng.Now()
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].Start(arrive)
				}
			},
			func(next func()) {
				arrive := eng.Barrier(sch.nGPU, next)
				for dev := 0; dev < sch.nGPU; dev++ {
					p.Devs[dev].EnqueueXfer(sch.xferIn(), arrive)
				}
			})
		// Each period enqueues its launches behind one barrier; a halo
		// exchange, when due, follows as its own step. The walk's runs
		// expand into their launches' row segments.
		type launch struct {
			dev, points int
			segs        []diagSeg
		}
		var launches []launch
		costs := launchCosts(nil, sys, inst, sch.nGPU)
		sch.walk(costs, func(sp span, c int, r launchRun) {
			for i := c; i < c+int(r.n); i++ {
				l := launch{dev: int(r.dev)}
				l.points = sch.launchPoints(sp, l.dev, i, &l.segs)
				launches = append(launches, l)
			}
		}, func(swapAfter bool) bool {
			period := launches
			launches = nil
			steps = append(steps, func(next func()) {
				arrive := eng.Barrier(len(period), next)
				for _, l := range period {
					segs := l.segs
					p.Devs[l.dev].EnqueueKernel(simcl.KernelReq{
						Points:    l.points,
						TSize:     inst.TSize,
						DSize:     inst.DSize,
						SyncSteps: sch.syncSteps,
						Inflate:   sch.inflate,
						Body: func() {
							for _, s := range segs {
								for r := s.rowLo; r <= s.rowHi; r++ {
									k.Compute(g, r, s.d-r)
								}
							}
						},
					}, arrive)
				}
			})
			if swapAfter {
				steps = append(steps, func(next func()) {
					// At each partition boundary the upper device's edge
					// rows go to the host and on to the device below; the
					// boundary exchanges chain on the shared link.
					res.Swaps++
					var chain func(b int)
					chain = func(b int) {
						if b >= sch.nGPU-1 {
							next()
							return
						}
						p.Devs[b].EnqueueXfer(sch.swapByte, func() {
							p.Devs[b+1].EnqueueXfer(sch.swapByte, func() { chain(b + 1) })
						})
					}
					chain(0)
				})
			}
			return true
		})
		steps = append(steps, func(next func()) {
			arrive := eng.Barrier(sch.nGPU, func() {
				res.GPUNs = eng.Now() - gpuT0
				next()
			})
			for dev := 0; dev < sch.nGPU; dev++ {
				p.Devs[dev].EnqueueXfer(sch.xferOut(dev), arrive)
			}
		})
	}

	// Phase 3: trailing CPU triangle.
	if pl.P3Hi >= pl.P3Lo {
		dur := cpuPhaseNs(sys, inst, par.CPUTile, pl.P3Lo, pl.P3Hi)
		res.Phase3Ns = dur
		steps = append(steps, func(next func()) {
			p.HostCompute(dur, func() {
				_ = cpuexec.RunSerialFrontier(k, g, grid.NewDiagRangeFrontier(rows, cols, pl.P3Lo, pl.P3Hi))
				next()
			})
		})
	}

	eng.Series(steps, nil)
	res.RTimeNs = eng.Run()

	// Fold device statistics into the breakdown.
	if gpu {
		for dev := 0; dev < sch.nGPU; dev++ {
			st := p.Devs[dev].Stats
			res.Kernels += st.Kernels
			res.StartupNs += st.StartupNs
			res.LaunchNs += st.LaunchNs
			res.ComputeNs += st.KernelNs
		}
		for dev := 0; dev < sch.nGPU; dev++ {
			res.XferNs += sys.Link.XferNs(sch.xferIn()) + sys.Link.XferNs(sch.xferOut(dev))
		}
		res.SwapNs = float64(2*res.Swaps*(sch.nGPU-1)) * sys.Link.XferNs(sch.swapByte)
		res.RedundantPoints = pl.RedundantPoints()
	}
	return res, g, nil
}

// Reference computes a rows x cols grid serially on the host, for
// verifying simulated results.
func Reference(rows, cols int, k kernels.Kernel) *grid.Grid {
	g := grid.NewRect(rows, cols, k.DSize())
	cpuexec.RunSerial(k, g)
	return g
}

// CPUOnlyParams returns the all-CPU configuration with the given tile.
func CPUOnlyParams(ct int) plan.Params {
	return plan.Params{CPUTile: ct, Band: -1, GPUTile: 1, Halo: -1}
}

// GPUOnlyParamsFor returns the configuration that offloads every
// diagonal of an instance of any shape to a single GPU.
func GPUOnlyParamsFor(inst plan.Instance) plan.Params {
	return plan.Params{CPUTile: 1, Band: inst.MaxUsefulBand(), GPUTile: 1, Halo: -1}
}
